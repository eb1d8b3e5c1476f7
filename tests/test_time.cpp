// ldlp::time — hierarchical timer wheel, clock faults, timer oracles.
//
// Wheel-grain tests pin the contract edge cases (arm-in-past, cancel
// after fire, horizon wrap, (deadline, seq) firing order, storm caps).
// Schedule-grain tests round-trip the clock fault kinds through
// ldlp.schedule.v1. The backoff-cap audit sweeps every retry surface —
// TCP RTO, ARP re-request, DNS retry, RPC leg RTO, overlay probe —
// under a forced kTimerStorm and asserts the documented doubling
// schedules and caps hold (a storm may fire timers spuriously, but the
// handlers re-check deadlines, so it must never accelerate a ladder).
// Scenario-grain tests reuse run_gossip_sim — the exact code the clocks
// chaos soak runs — for the WheelConfig::shed_guard mutation check and
// the ddmin shrink of a failing clocks schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "common/rng.hpp"
#include "dns/resolver.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "overlay/overlay.hpp"
#include "rpc/fanout.hpp"
#include "scenario/gossip_sim.hpp"
#include "scenario/registry.hpp"
#include "stack/host.hpp"
#include "time/timer_wheel.hpp"

namespace ldlp {
namespace {

using stack::Host;
using stack::HostConfig;
using stack::NetDevice;
using time::TimerClass;
using time::TimerWheel;
using wire::ip_from_parts;

// ---- Wheel contract edge cases -----------------------------------------

TEST(Wheel, ArmInPastFiresOnNextAdvanceNotCurrent) {
  TimerWheel w;
  w.advance_to(1.0);
  int fired = 0;
  const time::TimerId id =
      w.arm(0.5, TimerClass::kLiveness, [&] { ++fired; });
  EXPECT_TRUE(w.armed(id));
  w.advance_to(1.0);  // stale advance: a frozen clock fires nothing
  EXPECT_EQ(fired, 0);
  w.advance_to(1.001);  // the *next* advance delivers it
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(w.armed(id));
}

TEST(Wheel, CancelAfterFireIsNoOpEvenWhenSlotIsReused) {
  TimerWheel w;
  int fired = 0;
  const time::TimerId id = w.arm(0.01, TimerClass::kCadence, [&] { ++fired; });
  w.advance_to(0.02);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(w.cancel(id));
  EXPECT_EQ(w.stats().cancels, 0u);
  // The freed node slot is recycled; the stale id's generation no longer
  // matches, so cancelling it must not kill the new tenant.
  int fired2 = 0;
  const time::TimerId id2 = w.arm(0.05, TimerClass::kCadence, [&] { ++fired2; });
  EXPECT_FALSE(w.cancel(id));
  EXPECT_TRUE(w.armed(id2));
  w.advance_to(0.06);
  EXPECT_EQ(fired2, 1);
}

TEST(Wheel, WrapsPastTheWheelHorizonViaOverflow) {
  // 4 levels x 64 slots: anything beyond 64^4 ticks can't be filed in a
  // slot and parks on the overflow list until the top level wraps.
  time::WheelConfig cfg;
  cfg.tick_sec = 1.0;
  TimerWheel w(cfg);
  std::vector<int> order;
  (void)w.arm(100.0, TimerClass::kCadence, [&] { order.push_back(0); });
  const double past_horizon = 16'777'300.0;  // 64^4 = 16'777'216 ticks
  (void)w.arm(past_horizon, TimerClass::kExpiry, [&] { order.push_back(1); });
  EXPECT_EQ(w.armed_count(), 2u);
  w.advance_to(past_horizon + 1.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_GT(w.stats().cascades, 0u);  // outer levels actually re-filed
  EXPECT_EQ(w.armed_count(), 0u);
}

TEST(Wheel, FiresInDeadlineThenArmOrderTwiceIdentically) {
  const auto run_once = [] {
    TimerWheel w;
    std::vector<int> order;
    // Shuffled deadlines, several ties: ties must fire in arm order.
    const double deadlines[] = {0.30, 0.10, 0.30, 0.20, 0.10, 0.30, 0.05};
    for (int i = 0; i < 7; ++i)
      (void)w.arm(deadlines[i], TimerClass::kCadence,
                  [&order, i] { order.push_back(i); });
    w.advance_to(1.0);
    return order;
  };
  const std::vector<int> a = run_once();
  const std::vector<int> expected = {6, 1, 4, 3, 0, 2, 5};
  EXPECT_EQ(a, expected);
  EXPECT_EQ(a, run_once());  // bit-identical on replay
}

TEST(Wheel, StormSpuriousFiresAreCappedAndDueTimersStillFire) {
  time::WheelConfig cfg;
  cfg.storm_spurious_cap = 2;
  TimerWheel w(cfg);
  int due_fired = 0;
  int early_fired = 0;
  (void)w.arm(0.01, TimerClass::kLiveness, [&] { ++due_fired; });
  for (int i = 0; i < 5; ++i)
    (void)w.arm(5.0 + i, TimerClass::kCadence, [&] { ++early_fired; });
  w.set_storm_level(10);  // demands more than the cap allows
  w.advance_to(0.02);
  EXPECT_EQ(due_fired, 1);  // a storm must never starve due timers
  EXPECT_EQ(early_fired, 2);
  EXPECT_EQ(w.stats().spurious_fires, 2u);
  EXPECT_GT(w.stats().shed, 0u);  // the excess demand was shed, not fired
}

TEST(Wheel, DeadlineHeapStaysBoundedUnderChurn) {
  // A busy host re-arms far more often than anything asks for
  // next_deadline(): 1M cancel/re-arm ops driven only by advance_to must
  // keep the lazy deadline heap within 2 * armed + 64, and keep its order.
  TimerWheel w;
  Rng rng(0xc4a2);
  constexpr std::size_t kConns = 1024;
  std::vector<time::TimerId> ids(kConns, time::kNoTimer);
  double t = 0.0;
  for (int op = 0; op < 1'000'000; ++op) {
    const auto i = static_cast<std::size_t>(rng.bounded(kConns));
    (void)w.cancel(ids[i]);
    ids[i] = w.arm(t + rng.uniform(0.01, 0.4), TimerClass::kLiveness, [] {});
    ASSERT_LE(w.deadline_heap_size(), 2 * w.armed_count() + 64) << op;
    if (op % 128 == 0) {
      t += 1e-3;
      w.advance_to(t);
    }
  }
  EXPECT_GT(w.stats().fires, 0u);
  double soonest = std::numeric_limits<double>::infinity();
  for (const time::TimerId id : ids)
    soonest = std::min(soonest, w.deadline_of(id));
  EXPECT_EQ(w.next_deadline(), soonest);
}

TEST(Wheel, ShedGuardRevertShedsStaleTimersWithEvents) {
  time::WheelConfig cfg;
  cfg.shed_guard = false;  // the mutation under test
  TimerWheel w(cfg);
  std::vector<time::TimerEvent> sheds;
  w.set_observer([&](const time::TimerEvent& e) {
    if (e.kind == time::TimerEvent::Kind::kShed) sheds.push_back(e);
  });
  int fired = 0;
  (void)w.arm(0.1, TimerClass::kLiveness, [&] { ++fired; });
  w.advance_to(1.0);  // a stall-recovery snap: 0.9s past the deadline
  EXPECT_EQ(fired, 0);
  ASSERT_EQ(sheds.size(), 1u);
  EXPECT_EQ(sheds[0].cls, TimerClass::kLiveness);
  EXPECT_EQ(w.stats().shed, 1u);

  // The default guard fires the same timer late instead of dropping it.
  TimerWheel guarded;
  int late = 0;
  (void)guarded.arm(0.1, TimerClass::kLiveness, [&] { ++late; });
  guarded.advance_to(1.0);
  EXPECT_EQ(late, 1);
  EXPECT_EQ(guarded.stats().shed, 0u);
}

// ---- Clock fault kinds in ldlp.schedule.v1 -----------------------------

check::Schedule all_clock_kinds_schedule() {
  check::Schedule s;
  s.scenario = "clocks";
  s.seed = 9;
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kClockSkew, 0.1, 0.5, 0.0, 0, -0.25});
  plan.add({fault::FaultKind::kClockDrift, 0.2, 0.6, 0.0, 0, 0.3});
  plan.add({fault::FaultKind::kClockStall, 0.3, 0.7, 0.0, 0, 0.0});
  plan.add({fault::FaultKind::kTimerStorm, 0.4, 0.8, 0.0, 5, 0.0});
  s.injectors.push_back({"h3", 77, plan});
  return s;
}

TEST(ClockSchedule, RoundTripsAllClockKindsByteStable) {
  const check::Schedule s = all_clock_kinds_schedule();
  std::string error;
  const auto back = check::Schedule::from_json(s.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  const auto& eps = back->injectors[0].plan.episodes();
  ASSERT_EQ(eps.size(), 4u);
  EXPECT_EQ(eps[0].kind, fault::FaultKind::kClockSkew);
  EXPECT_DOUBLE_EQ(eps[0].magnitude, -0.25);
  EXPECT_EQ(eps[1].kind, fault::FaultKind::kClockDrift);
  EXPECT_DOUBLE_EQ(eps[1].magnitude, 0.3);
  EXPECT_EQ(eps[2].kind, fault::FaultKind::kClockStall);
  EXPECT_EQ(eps[3].kind, fault::FaultKind::kTimerStorm);
  EXPECT_EQ(eps[3].param, 5u);
  EXPECT_EQ(back->to_json().dump(2), s.to_json().dump(2));
}

TEST(ClockSchedule, SoakScheduleRoundTripsByteStable) {
  // The real thing the soak would write next to a failing seed.
  const check::Schedule s = scenario::make_clocks_schedule(7);
  std::string error;
  const auto back = check::Schedule::from_json(s.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json().dump(2), s.to_json().dump(2));
}

TEST(ClockSchedule, UnknownFieldsToleratedUnknownKindRejected) {
  // Forward compatibility: extra keys from a newer writer are ignored...
  obs::Json doc = all_clock_kinds_schedule().to_json();
  doc.set("future_clock_model", obs::Json("tsc"));
  std::string error;
  const auto back = check::Schedule::from_json(doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->episode_count(), 4u);

  // ...but an unknown fault *kind* is a hard error: silently dropping an
  // episode would change what the schedule reproduces.
  std::string text = all_clock_kinds_schedule().to_json().dump(2);
  const auto pos = text.find("\"clock-stall\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 13, "\"clock-warp\"");
  std::string parse_error;
  const auto redoc = obs::Json::parse(text, &parse_error);
  ASSERT_TRUE(redoc.has_value()) << parse_error;
  EXPECT_FALSE(check::Schedule::from_json(*redoc, &error).has_value());
  EXPECT_NE(error.find("clock-warp"), std::string::npos);
}

// ---- Backoff-cap audit under a forced timer storm ----------------------

/// One active kTimerStorm episode covering the whole test: every advance
/// fires spurious wakeups, so any ladder that trusted "my timer fired,
/// time to retransmit" without re-checking its deadline would collapse.
fault::FaultPlan storm_plan() {
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kTimerStorm, 0.0, 1e6, 0.0, 8, 0.0});
  return plan;
}

/// Two directly-cabled hosts; the client carries the storm injector.
struct StormPair {
  std::unique_ptr<Host> client;
  std::unique_ptr<Host> server;
  fault::FaultInjector storm{storm_plan(), 1};

  StormPair() {
    HostConfig cc;
    cc.name = "client";
    cc.mac = {2, 0, 0, 0, 0, 1};
    cc.ip = ip_from_parts(10, 0, 0, 1);
    HostConfig cs = cc;
    cs.name = "server";
    cs.mac = {2, 0, 0, 0, 0, 2};
    cs.ip = ip_from_parts(10, 0, 0, 2);
    client = std::make_unique<Host>(cc);
    server = std::make_unique<Host>(cs);
    NetDevice::connect(client->device(), server->device());
    client->attach_fault(&storm);
  }
};

/// Gaps must follow the documented ladder: each one doubles the last up
/// to `cap`. `first` is the expected initial gap.
void expect_doubling(const std::vector<double>& gaps, double first,
                     double cap, double slack = 0.06) {
  ASSERT_GE(gaps.size(), 2u);
  double expected = first;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    EXPECT_NEAR(gaps[i], expected, slack)
        << "gap " << i << " breaks the ladder";
    EXPECT_LE(gaps[i], cap + slack) << "gap " << i << " exceeds the cap";
    expected = std::min(expected * 2.0, cap);
  }
}

std::vector<double> diffs(const std::vector<double>& ts) {
  std::vector<double> out;
  for (std::size_t i = 1; i < ts.size(); ++i) out.push_back(ts[i] - ts[i - 1]);
  return out;
}

TEST(BackoffCaps, TcpRtoDoublesToCapUnderStorm) {
  StormPair net;
  (void)net.server->tcp().listen(80);
  const stack::PcbId conn =
      net.client->tcp().connect(ip_from_parts(10, 0, 0, 2), 80);
  for (int i = 0; i < 12; ++i) {
    net.client->pump();
    net.server->pump();
  }
  ASSERT_EQ(net.client->tcp().state(conn), stack::TcpState::kEstablished);

  // Send, then silence the server: only the client's clock moves, so the
  // segment retransmits up the ladder with no ACK ever coming back.
  const std::vector<std::uint8_t> data = {'p', 'i', 'n', 'g'};
  ASSERT_TRUE(net.client->tcp().send(conn, data));
  std::set<double> rtos;
  std::vector<double> change_at;
  double last_rto = 0.0;
  for (double t = 0.0; t < 60.0; t += 0.01) {
    net.client->advance(0.01);
    net.client->pump();
    if (net.client->tcp().state(conn) == stack::TcpState::kClosed) break;
    const double rto = net.client->tcp().pcb_view(conn).rto_sec;
    rtos.insert(rto);
    if (rto != last_rto) {
      change_at.push_back(net.client->now());
      last_rto = rto;
    }
  }
  // Documented ladder: 0.5 doubling to the 8.0 cap, nothing above it —
  // and the storm's spurious wakeups never fired a retransmit early.
  EXPECT_EQ(*rtos.begin(), 0.5);
  EXPECT_EQ(*rtos.rbegin(), 8.0);
  for (const double r : rtos) EXPECT_LE(r, 8.0);
  ASSERT_GE(change_at.size(), 4u);
  // change_at[0] is the established connection's initial 0.5s RTO; each
  // later change is a retransmit, spaced by the RTO it doubled from.
  const std::vector<double> gaps = diffs(change_at);
  expect_doubling(gaps, 0.5, 8.0);
  EXPECT_GT(net.client->wheel().stats().spurious_fires, 0u);
}

TEST(BackoffCaps, ArpRetryDoublesToCapThenFails) {
  StormPair net;
  // 10.0.0.3 does not exist: the datagram parks on ARP forever.
  const std::vector<std::uint8_t> payload = {'x'};
  net.client->udp().send(4000, ip_from_parts(10, 0, 0, 3), 4000, payload);
  std::vector<double> deadlines;
  double last = -1.0;
  for (double t = 0.0; t < 20.0; t += 0.01) {
    net.client->advance(0.01);
    net.client->pump();
    const double d = net.client->eth().arp().next_retry_deadline();
    if (std::isfinite(d) && d != last) {
      deadlines.push_back(d);
      last = d;
    }
  }
  const stack::ArpCacheStats& st = net.client->eth().arp().stats();
  EXPECT_EQ(st.retries, 5u);  // kMaxTries, then give up
  EXPECT_EQ(st.resolve_failures, 1u);
  EXPECT_FALSE(std::isfinite(net.client->eth().arp().next_retry_deadline()));
  // First retry 0.5s after the park; gaps double to the 4s cap.
  ASSERT_GE(deadlines.size(), 3u);
  EXPECT_NEAR(deadlines[0], 0.5, 0.06);
  expect_doubling(diffs(deadlines), 1.0, 4.0);
}

TEST(BackoffCaps, DnsRetryDoublesToCapThenFailsUnderStorm) {
  StormPair net;
  dns::DnsResolver::Config cfg;
  cfg.server_ip = ip_from_parts(10, 0, 0, 2);  // answers ARP, no DNS server
  dns::DnsResolver resolver(*net.client, cfg);
  std::vector<double> sends;
  net.client->udp().set_send_tap(
      [&](std::uint16_t, std::uint32_t, std::uint16_t dst_port,
          std::span<const std::uint8_t>) {
        if (dst_port == dns::kDnsPort) sends.push_back(net.client->now());
      });
  bool fired = false;
  std::optional<std::uint32_t> answer = 1;  // sentinel: must become nullopt
  resolver.resolve("dead.example",
                   [&](const std::string&, std::optional<std::uint32_t> a) {
                     fired = true;
                     answer = a;
                   });
  for (double t = 0.0; t < 10.0 && !fired; t += 0.01) {
    net.client->advance(0.01);
    net.server->advance(0.01);
    net.client->pump();
    net.server->pump();
    resolver.poll();
  }
  ASSERT_TRUE(fired);
  EXPECT_FALSE(answer.has_value());  // exhaustion, not an address
  EXPECT_EQ(resolver.stats().retries, 3u);  // max_retries
  // 4 sends: original + 3 retries, timeouts 0.5 → 1.0 → 2.0 (the cap).
  ASSERT_EQ(sends.size(), 4u);
  expect_doubling(diffs(sends), 0.5, 2.0);
}

TEST(BackoffCaps, RpcLegRtoDoublesToCapUnderStorm) {
  StormPair net;
  rpc::FanoutConfig cfg;  // UDP transport; 10.0.0.2 answers ARP, no server
  obs::Histogram latency(1e-6, 100.0, 10);
  rpc::FanoutClient fc(*net.client, {ip_from_parts(10, 0, 0, 2)}, cfg,
                       latency);
  std::vector<double> sends;
  net.client->udp().set_send_tap(
      [&](std::uint16_t src_port, std::uint32_t, std::uint16_t,
          std::span<const std::uint8_t>) {
        if (src_port == cfg.client_port) sends.push_back(net.client->now());
      });
  fc.start(0.0, 0.0);
  double t = 0.0;
  while (t < 16.0 && sends.size() < 7) {
    t += 0.01;
    net.client->advance(0.01);
    net.server->advance(0.01);
    net.client->pump();
    net.server->pump();
    fc.poll(t);
  }
  EXPECT_EQ(fc.outstanding(), 1u);  // never completed, never dropped
  // Retransmit gaps: 0.25 doubling to the 4.0 cap.
  ASSERT_GE(sends.size(), 6u);
  expect_doubling(diffs(sends), 0.25, 4.0);
}

TEST(BackoffCaps, OverlayProbeBackoffDoublesToCapUnderStorm) {
  StormPair net;
  overlay::OverlayConfig cfg;
  overlay::OverlayNode a(*net.client, ip_from_parts(10, 0, 0, 1), cfg);
  overlay::OverlayNode b(*net.server, ip_from_parts(10, 0, 0, 2), cfg);
  b.join(a.id(), 0.0);
  double t = 0.0;
  const auto step = [&](bool poll_b) {
    t += 0.01;
    net.client->advance(0.01);
    net.server->advance(0.01);
    net.client->pump();
    net.server->pump();
    a.poll(t);
    if (poll_b) b.poll(t);
  };
  while (t < 2.0 && !(a.in_active(b.id()) && b.in_active(a.id()))) step(true);
  ASSERT_TRUE(a.in_active(b.id()));

  // Go silent on b: its host still answers ARP, but the node never polls
  // again, so a's probes get no PONG and climb the backoff ladder.
  std::vector<double> timeout_at;
  std::uint64_t last_timeouts = a.stats().probe_timeouts;
  while (t < 10.0 && a.in_active(b.id())) {
    step(false);
    if (a.stats().probe_timeouts != last_timeouts) {
      timeout_at.push_back(t);
      last_timeouts = a.stats().probe_timeouts;
    }
  }
  EXPECT_FALSE(a.in_active(b.id()));  // declared dead after probe_failures
  EXPECT_EQ(a.stats().probe_timeouts, 3u);
  // Gaps between successive timeouts: 0.3 doubled to the 1.2 cap.
  expect_doubling(diffs(timeout_at), 0.6, 1.2);
}

// ---- The clocks scenario: mutation check + ddmin -----------------------

/// 16-host run_gossip_sim config with the timer oracles attached — the
/// same code path as the clocks soak, sized for unit-test wall clock.
/// Probing is aggressive (idle threshold under every cadence interval)
/// so the consolidated wakeup is liveness-class when the stall snaps.
scenario::GossipSimConfig clocks_sim() {
  scenario::GossipSimConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.fault_horizon_sec = 1.2;
  cfg.storm_broadcasts = 16;
  cfg.timer_oracles = true;
  cfg.overlay.membership.probe_idle_sec = 0.15;
  return cfg;
}

/// One long clock stall on h2 (the snap strands its armed wakeups well
/// past stale_shed_sec) plus two benign decoys on other hosts that ddmin
/// must discard: a small skew and a mild drift, neither of which can
/// move a wheel far enough in one advance to strand anything.
check::Schedule stall_schedule(std::uint64_t seed) {
  check::Schedule s;
  s.scenario = "clocks";
  s.seed = seed;
  fault::FaultPlan stall;
  stall.add({fault::FaultKind::kClockStall, 0.35, 1.0, 0.0, 0, 0.0});
  s.injectors.push_back({"h2", seed * 3 + 5, stall});
  fault::FaultPlan skew;
  skew.add({fault::FaultKind::kClockSkew, 0.2, 0.5, 0.0, 0, 0.08});
  s.injectors.push_back({"h5", seed * 3 + 6, skew});
  fault::FaultPlan drift;
  drift.add({fault::FaultKind::kClockDrift, 0.1, 0.4, 0.0, 0, 0.2});
  s.injectors.push_back({"h9", seed * 3 + 7, drift});
  return s;
}

TEST(ClocksSim, StallRecoverySnapIsSurvivedWithGuardOn) {
  const scenario::GossipSimResult r =
      scenario::run_gossip_sim(stall_schedule(3), clocks_sim());
  EXPECT_TRUE(r.pass) << r.why;
  EXPECT_EQ(r.timer_shed, 0u);  // the guard fires late, it never drops
  EXPECT_GT(r.timer_arms, 0u);
  EXPECT_GT(r.timer_fires, 0u);
}

TEST(ClocksMutation, ShedGuardRevertCaughtAndShrinksToTheStall) {
  // THE MUTATION CHECK. Reverting WheelConfig::shed_guard must (a) be
  // caught by the deadline oracle when a stall-recovery snap sheds a
  // liveness timer, (b) stay green without clock faults — the oracle
  // blames the shed path, not background noise — and (c) ddmin the
  // failing schedule down to the single kClockStall episode.
  scenario::GossipSimConfig mutated = clocks_sim();
  mutated.wheel.shed_guard = false;

  const check::Schedule stall = stall_schedule(3);
  const scenario::GossipSimResult broken =
      scenario::run_gossip_sim(stall, mutated);
  ASSERT_FALSE(broken.pass);
  ASSERT_FALSE(broken.violations.empty());
  EXPECT_NE(broken.violations[0].find("shed"), std::string::npos)
      << broken.violations[0];

  check::Schedule calm = stall;
  calm.injectors.clear();
  const scenario::GossipSimResult quiet =
      scenario::run_gossip_sim(calm, mutated);
  EXPECT_TRUE(quiet.pass) << quiet.why;

  const check::ShrinkResult shrunk = check::shrink(
      stall,
      [&](const check::Schedule& candidate) {
        return !scenario::run_gossip_sim(candidate, mutated).pass;
      },
      64);
  EXPECT_TRUE(shrunk.converged);
  EXPECT_EQ(shrunk.schedule.episode_count(), 1u);
  EXPECT_TRUE(shrunk.schedule.has_kind(fault::FaultKind::kClockStall));
}

TEST(ClocksScenario, RegisteredWithOwnBudget) {
  bool found = false;
  for (std::size_t i = 0; i < scenario::kScenarioCount; ++i) {
    if (std::string(scenario::kScenarios[i].name) != "clocks") continue;
    found = true;
    EXPECT_NE(scenario::kScenarios[i].make, nullptr);
    EXPECT_EQ(scenario::kScenarios[i].seed_timeout_ms, 120000);
    // Opt-in like tail/gossip: the default sweep stays protocol-grain.
    EXPECT_FALSE(scenario::kScenarios[i].in_default_sweep);
  }
  EXPECT_TRUE(found);
  // The generated schedule actually carries clock adversity: a fleet
  // injector plus per-host victims with clock-kind episodes.
  const check::Schedule s = scenario::make_clocks_schedule(5);
  EXPECT_EQ(s.scenario, "clocks");
  bool has_clock_kind = false;
  for (const auto& spec : s.injectors)
    for (const auto& e : spec.plan.episodes())
      has_clock_kind = has_clock_kind ||
                       e.kind == fault::FaultKind::kClockSkew ||
                       e.kind == fault::FaultKind::kClockDrift ||
                       e.kind == fault::FaultKind::kClockStall ||
                       e.kind == fault::FaultKind::kTimerStorm;
  EXPECT_TRUE(has_clock_kind);
  EXPECT_EQ(s.injectors[0].host, "fabric");
}

}  // namespace
}  // namespace ldlp
