#include "scenario/gossip_sim.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/broadcast.hpp"
#include "check/overlay_audit.hpp"
#include "check/timer_audit.hpp"
#include "common/histogram.hpp"
#include "net/topology.hpp"
#include "recover/deadline_oracle.hpp"
#include "recover/overlay_convergence.hpp"
#include "scenario/registry.hpp"

namespace ldlp::scenario {

namespace {

constexpr double kJoinWindowSec = 0.6;  ///< Joins staggered across this.
constexpr std::size_t kPayloadBytes = 32;

}  // namespace

GossipSimResult run_gossip_sim(const check::Schedule& schedule,
                               const GossipSimConfig& config) {
  using overlay::MsgId;
  using overlay::NodeId;
  using overlay::OverlayNode;
  GossipSimResult r;
  Harness h(schedule,
            Topology{config.racks, config.hosts_per_rack, config.spines},
            config.timeout_ms);
  // Wheel configuration (including the shed_guard mutation knob) must
  // land before the first arm — the overlay endpoints arm their wakeup
  // timers from their constructors.
  for (std::size_t i = 0; i < h.size(); ++i)
    h.host(i).wheel().config() = config.wheel;

  // Timer oracles (the `clocks` scenario): TimerAuditor per host plus
  // one DeadlineOracle observing every wheel.
  std::vector<std::unique_ptr<check::TimerAuditor>> timer_auditors;
  recover::DeadlineOracle deadlines;
  if (config.timer_oracles) {
    timer_auditors.reserve(h.size());
    for (std::size_t i = 0; i < h.size(); ++i) {
      timer_auditors.push_back(
          std::make_unique<check::TimerAuditor>(h.host(i)));
      deadlines.attach(h.host(i));
    }
  }

  // The overlay fleet. Node i's identity is its IPv4; its bootstrap
  // contact is node 0 (node 0's own contact is node 1, so a restarted
  // bootstrap can rejoin too).
  overlay::OverlayConfig overlay_cfg = config.overlay;
  overlay_cfg.seed = schedule.seed;
  std::vector<std::unique_ptr<OverlayNode>> nodes;
  nodes.reserve(h.size());
  for (std::size_t i = 0; i < h.size(); ++i)
    nodes.push_back(std::make_unique<OverlayNode>(
        h.host(i), net::host_ip(static_cast<std::uint32_t>(i)),
        overlay_cfg));

  // The three overlay oracles.
  check::BroadcastDeliveryOracle delivery;
  check::ViewAuditor views_auditor;
  recover::OverlayConvergenceOracle conv;
  conv.add_clearance([&h] { return h.faults_cleared(); });
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (h.restart_victim(i)) delivery.mark_unstable(nodes[i]->id());
    OverlayNode* node = nodes[i].get();
    node->set_deliver_hook(
        [&delivery, node](MsgId id, std::span<const std::uint8_t> payload) {
          delivery.delivered(node->id(), id.origin, id.seq, payload);
        });
  }

  // Per tick round: poll every endpoint, snapshot the views, audit.
  std::vector<check::OverlayView> views(nodes.size());
  const auto snapshot_views = [&] {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->fill_view(views[i]);
      views[i].live = h.injector(i) == nullptr || !h.injector(i)->host_down();
    }
  };
  h.on_pass([&] {
    const double now = h.fabric().now();
    for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i]->poll(now);
    snapshot_views();
    views_auditor.audit(views, now);
    conv.on_pass(views);
    if (config.timer_oracles) {
      for (const auto& ta : timer_auditors) ta->run();
      deadlines.on_pass();
    }
  });

  // Phase 1+2 are interleaved: joins stagger across the join window while
  // the storm's broadcasts pace across the fault horizon, so dissemination
  // and membership repair run concurrently with the adversity.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId contact = net::host_ip(i == 0 ? 1 : 0);
    const double when = kJoinWindowSec * static_cast<double>(i) /
                        static_cast<double>(nodes.size());
    nodes[i]->join(contact, when);
  }

  // Deterministic storm plan: origin k and fire time drawn from the seed,
  // origins restricted to stable (never-restarting) nodes.
  std::vector<std::size_t> stable_nodes;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (!h.restart_victim(i)) stable_nodes.push_back(i);
  if (stable_nodes.empty()) {
    r.fail("no stable node to originate broadcasts");
    return r;
  }
  Rng storm_rng(schedule.seed ^ 0x60551bULL);
  struct PlannedCast {
    double at;
    std::size_t origin;
  };
  std::vector<PlannedCast> storm(config.storm_broadcasts);
  const double storm_begin = kJoinWindowSec * 0.5;
  const double storm_end = config.fault_horizon_sec + 0.4;
  for (std::size_t k = 0; k < storm.size(); ++k) {
    storm[k].at = storm_rng.uniform(storm_begin, storm_end);
    storm[k].origin = stable_nodes[storm_rng.bounded(stable_nodes.size())];
  }
  std::sort(storm.begin(), storm.end(),
            [](const PlannedCast& a, const PlannedCast& b) {
              return a.at < b.at;
            });

  std::uint32_t payload_salt = 0;
  const auto cast_from = [&](std::size_t origin) {
    std::vector<std::uint8_t> payload(kPayloadBytes);
    std::uint64_t mix = schedule.seed ^ (++payload_salt * 0x9e3779b9ULL);
    for (auto& b : payload) b = static_cast<std::uint8_t>(splitmix64(mix));
    // Ground truth first: broadcast() delivers to the origin synchronously,
    // and the oracle must already know the id when that hook fires.
    const MsgId id = nodes[origin]->next_broadcast_id();
    delivery.broadcast(id.origin, id.seq, payload);
    (void)nodes[origin]->broadcast(payload, h.fabric().now());
  };

  std::size_t fired = 0;
  while (fired < storm.size() && !h.expired()) {
    // Fire everything due at this horizon. The clock itself can stop short
    // of `due` when no event lands inside the window (run_until only
    // advances now() by popping events), so gate on the horizon we asked
    // for, never on fabric.now().
    const double due = storm[fired].at;
    h.fabric().run_until(due);
    while (fired < storm.size() && storm[fired].at <= due) {
      cast_from(storm[fired].origin);
      ++fired;
    }
  }
  h.fabric().run_until(std::max(h.fabric().now(), storm_end));

  // Phase 3: heal and converge. Beacons from a stable node keep the
  // anti-entropy window fresh so any subtree orphaned by churn grafts
  // back in; the loop runs until the views hold still AND every stable
  // member has everything, then one final beacon-free drain settles the
  // last deliveries.
  conv.arm();
  const auto all_complete = [&] {
    for (const std::size_t i : stable_nodes)
      if (!delivery.complete(nodes[i]->id())) return false;
    return true;
  };
  double next_beacon = h.fabric().now() + 0.5;
  for (int iter = 0; iter < 160 && !h.expired(); ++iter) {
    if (conv.settled() && all_complete()) break;
    if (h.fabric().now() >= next_beacon) {
      cast_from(stable_nodes.front());
      next_beacon = h.fabric().now() + 0.5;
    }
    h.fabric().run_for(0.25);
  }
  for (int iter = 0; iter < 40 && !all_complete() && !h.expired(); ++iter)
    h.fabric().run_for(0.25);

  if (h.expired())
    r.fail(kBudgetExceeded);
  else if (!conv.settled())
    r.fail("overlay never converged (views still churning)");
  else if (!all_complete())
    r.fail("broadcast delivery incomplete after drain");

  // Phase 4: judgement. Final view snapshot for the shape checks.
  snapshot_views();
  views_auditor.final_audit(views, h.fabric().now());
  (void)conv.finalize(views);
  std::vector<std::uint32_t> members;
  for (const auto& node : nodes) members.push_back(node->id());
  (void)delivery.finalize(members);
  fold(r, views_auditor, "view auditor", "view");
  fold(r, conv, "overlay convergence", "conv");
  fold(r, delivery, "broadcast oracle", "bcast");

  // Mute the endpoints but keep polling through the settle: timers stop
  // feeding the fabric while the in-flight tail still lands and drains
  // out of the sockets — stopping the polls before the tail settles
  // would strand the last datagrams in socket queues as an mbuf leak.
  for (const auto& node : nodes) node->set_muted(true);
  h.settle(r);
  h.fold_audits(r);

  // Evidence summary.
  LogHistogram repair_hist(1e-3, 1e2, 20);
  std::uint64_t useful = 0;
  for (const auto& node : nodes) {
    const overlay::OverlayStats& s = node->stats();
    r.broadcasts += s.broadcasts;
    r.deliveries += s.deliveries;
    r.gossip_rx += s.gossip_rx;
    r.duplicates += s.duplicates;
    r.grafts += s.grafts_tx;
    r.prunes += s.prunes_tx;
    r.repairs_done += s.repairs_done;
    r.probes_suppressed += s.probes_suppressed;
    useful += s.deliveries - s.broadcasts;  // non-origin deliveries
    for (const double latency : node->repair_latencies())
      repair_hist.add(latency);
  }
  r.suppressed_ticks = h.fabric().suppressed_ticks();
  r.relay_redundancy =
      useful > 0 ? static_cast<double>(r.gossip_rx) /
                       static_cast<double>(useful)
                 : 0.0;
  const check::BroadcastStats& bs = delivery.stats();
  const std::uint64_t owed = bs.broadcasts * (stable_nodes.size() - 1);
  r.delivery_completeness =
      owed > 0 && delivery.ok()
          ? 1.0
          : (owed > 0 ? static_cast<double>(bs.deliveries) /
                            static_cast<double>(owed)
                      : 0.0);
  if (r.delivery_completeness > 1.0) r.delivery_completeness = 1.0;
  r.repair_p99_sec = repair_hist.count() > 0 ? repair_hist.quantile(0.99) : 0.0;
  r.sim_time_sec = h.fabric().now();
  if (r.pass && r.broadcasts == 0)
    r.fail("no broadcasts issued (storm never started)");

  // Timer judgement last: destroy the endpoints first so their wakeup
  // timers cancel — after that, anything still armed beyond the PCB/ARP
  // consolidated timers is a leak the final audit flags.
  if (config.timer_oracles) {
    nodes.clear();
    for (const auto& ta : timer_auditors) {
      ta->final_audit();
      fold(r, *ta, "timer auditor", "timer");
    }
    deadlines.finalize();
    deadlines.detach();
    fold(r, deadlines, "deadline oracle", "deadline");
  }
  for (std::size_t i = 0; i < h.size(); ++i) {
    const time::WheelStats& ws = h.host(i).wheel().stats();
    r.timer_arms += ws.arms;
    r.timer_fires += ws.fires;
    r.timer_cancels += ws.cancels;
    r.timer_spurious += ws.spurious_fires;
    r.timer_shed += ws.shed;
  }
  return r;
}

Result run_gossip(const check::Schedule& schedule, std::uint64_t timeout_ms) {
  GossipSimConfig cfg;
  cfg.timeout_ms = timeout_ms;
  const GossipSimResult g = run_gossip_sim(schedule, cfg);
  Result r = g;
  r.detail = "broadcasts=" + std::to_string(g.broadcasts) +
             " deliveries=" + std::to_string(g.deliveries) +
             " dup=" + std::to_string(g.duplicates) +
             " grafts=" + std::to_string(g.grafts) +
             " prunes=" + std::to_string(g.prunes) +
             " repairs=" + std::to_string(g.repairs_done) +
             " redundancy=" + std::to_string(g.relay_redundancy);
  return r;
}

/// The gossip fleet with the timer oracles armed. Wheel defaults apply —
/// in particular shed_guard stays on; the mutation check that reverts it
/// lives in tests/test_time.cpp.
Result run_clocks(const check::Schedule& schedule, std::uint64_t timeout_ms) {
  GossipSimConfig cfg;
  cfg.timer_oracles = true;
  cfg.timeout_ms = timeout_ms;
  const GossipSimResult g = run_gossip_sim(schedule, cfg);
  Result r = g;
  r.detail = "arms=" + std::to_string(g.timer_arms) +
             " fires=" + std::to_string(g.timer_fires) +
             " cancels=" + std::to_string(g.timer_cancels) +
             " spurious=" + std::to_string(g.timer_spurious) +
             " shed=" + std::to_string(g.timer_shed) +
             " deliveries=" + std::to_string(g.deliveries) +
             " repairs=" + std::to_string(g.repairs_done);
  return r;
}

}  // namespace ldlp::scenario
