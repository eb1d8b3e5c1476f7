// ldlp::overlay — HyParView membership + PlumTree dissemination.
//
// Fine-grain protocol tests drive a small fat-tree fleet directly (join
// propagation, shuffle merge, prune-on-duplicate); scenario-grain tests
// reuse run_gossip_sim — the exact code the chaos soak and the perf gate
// run — for repair-after-churn, the enable_repair mutation check and the
// ddmin shrink of a failing gossip schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "check/shrink.hpp"
#include "fault/fault_plan.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "overlay/overlay.hpp"
#include "scenario/gossip_sim.hpp"
#include "scenario/registry.hpp"

namespace ldlp {
namespace {

/// A polled overlay fleet on a small fat tree, no faults: the harness
/// the fine-grain membership tests drive.
struct MiniFleet {
  net::Fabric fabric;
  std::vector<net::HostId> hosts;
  std::vector<std::unique_ptr<overlay::OverlayNode>> nodes;

  explicit MiniFleet(std::size_t racks, std::size_t hosts_per_rack,
                     overlay::OverlayConfig cfg = {}) {
    net::FatTreeConfig topo;
    topo.racks = racks;
    topo.hosts_per_rack = hosts_per_rack;
    topo.spines = 1;
    topo.proto.mode = core::SchedMode::kLdlp;
    hosts = net::build_fat_tree(fabric, topo);
    for (std::size_t i = 0; i < hosts.size(); ++i)
      nodes.push_back(std::make_unique<overlay::OverlayNode>(
          fabric.host(hosts[i]), net::host_ip(static_cast<std::uint32_t>(i)),
          cfg));
    fabric.set_pass_hook([this] {
      const double now = fabric.now();
      for (auto& node : nodes) node->poll(now);
    });
  }

  /// Staggered joins through node 0 (node 0's own contact is node 1).
  void join_all(double window_sec) {
    for (std::size_t i = 0; i < nodes.size(); ++i)
      nodes[i]->join(net::host_ip(i == 0 ? 1 : 0),
                     window_sec * static_cast<double>(i) /
                         static_cast<double>(nodes.size()));
  }

  /// BFS over symmetric active links: true when one component spans the
  /// whole fleet.
  [[nodiscard]] bool active_graph_connected() const {
    std::vector<bool> seen(nodes.size(), false);
    std::queue<std::size_t> frontier;
    frontier.push(0);
    seen[0] = true;
    std::size_t reached = 1;
    while (!frontier.empty()) {
      const std::size_t at = frontier.front();
      frontier.pop();
      for (std::size_t j = 0; j < nodes.size(); ++j) {
        if (seen[j]) continue;
        if (nodes[at]->in_active(nodes[j]->id()) &&
            nodes[j]->in_active(nodes[at]->id())) {
          seen[j] = true;
          ++reached;
          frontier.push(j);
        }
      }
    }
    return reached == nodes.size();
  }
};

TEST(OverlayMembership, JoinPropagatesIntoConnectedViews) {
  MiniFleet fleet(2, 4);
  fleet.join_all(0.3);
  fleet.fabric.run_for(3.0);

  std::uint64_t forward_joins = 0;
  for (const auto& node : fleet.nodes) {
    // Every node ended up with a bounded, non-empty active view.
    EXPECT_GE(node->active_size(), 1u) << "node " << node->id();
    EXPECT_LE(node->active_size(), overlay::MembershipConfig{}.active_max);
    forward_joins += node->stats().forward_joins;
  }
  // Joins propagated on random walks, not just pairwise with the contact.
  EXPECT_GT(forward_joins, 0u);
  EXPECT_TRUE(fleet.active_graph_connected());
}

TEST(OverlayMembership, ShufflesMergePassiveViews) {
  MiniFleet fleet(2, 4);
  fleet.join_all(0.3);
  fleet.fabric.run_for(6.0);  // several shuffle_interval_sec periods

  std::uint64_t shuffles = 0, replies = 0;
  std::size_t with_passive = 0;
  for (const auto& node : fleet.nodes) {
    shuffles += node->stats().shuffles_sent;
    replies += node->stats().shuffle_replies;
    if (node->passive_size() > 0) ++with_passive;
  }
  EXPECT_GT(shuffles, 0u);
  EXPECT_GT(replies, 0u);
  // Shuffle walks deposited repair candidates across the fleet — most
  // nodes know members they never directly handshook with.
  EXPECT_GE(with_passive, fleet.nodes.size() / 2);
}

TEST(OverlayDissemination, BroadcastDeliversEverywhereAndPrunes) {
  MiniFleet fleet(2, 4);
  fleet.join_all(0.3);
  fleet.fabric.run_for(2.0);

  std::vector<overlay::MsgId> sent;
  for (int k = 0; k < 8; ++k) {
    const std::vector<std::uint8_t> payload(24,
                                            static_cast<std::uint8_t>(k));
    sent.push_back(fleet.nodes[0]->broadcast(payload, fleet.fabric.now()));
    fleet.fabric.run_for(0.5);
  }
  fleet.fabric.run_for(2.0);

  std::uint64_t duplicates = 0, prunes = 0;
  for (const auto& node : fleet.nodes) {
    for (const overlay::MsgId id : sent)
      EXPECT_TRUE(node->has_delivered(id))
          << "node " << node->id() << " missing (" << id.origin << ","
          << id.seq << ")";
    duplicates += node->stats().duplicates;
    prunes += node->stats().prunes_tx;
  }
  // A fresh overlay floods every active link; prune-on-duplicate must
  // have started carving the tree out of the redundancy.
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(prunes, 0u);
}

/// 16-host run_gossip_sim config the scenario-grain tests share: same
/// code path as the soak, sized for unit-test wall clock.
scenario::GossipSimConfig small_sim() {
  scenario::GossipSimConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.spines = 2;
  cfg.fault_horizon_sec = 1.2;
  cfg.storm_broadcasts = 16;
  return cfg;
}

/// One mid-storm restart of h2: the repair path's minimal trigger.
check::Schedule restart_schedule(std::uint64_t seed) {
  check::Schedule s;
  s.scenario = "gossip";
  s.seed = seed;
  fault::Episode e;
  e.kind = fault::FaultKind::kHostRestart;
  e.start = 0.55;
  e.end = 0.85;
  fault::FaultPlan plan;
  plan.add(e);
  s.injectors.push_back({"h2", seed * 3 + 5, std::move(plan)});
  return s;
}

TEST(GossipSim, RepairReadmitsRestartedHost) {
  const scenario::GossipSimResult r =
      scenario::run_gossip_sim(restart_schedule(3), small_sim());
  EXPECT_TRUE(r.pass) << r.why;
  EXPECT_EQ(r.delivery_completeness, 1.0);
  // The victim's peers declared it dead and promoted replacements; the
  // victim itself re-joined through its bootstrap contact.
  EXPECT_GT(r.repairs_done, 0u);
  EXPECT_GT(r.broadcasts, 0u);
}

TEST(GossipSim, FullChurnScheduleConvergesWithEvidence) {
  // The soak's own 64-host schedule (fabric plan + two restart victims):
  // every protocol mechanism must leave a trace.
  const scenario::GossipSimResult r =
      scenario::run_gossip_sim(scenario::make_gossip_schedule(1));
  EXPECT_TRUE(r.pass) << r.why;
  EXPECT_EQ(r.delivery_completeness, 1.0);
  EXPECT_GT(r.grafts, 0u);
  EXPECT_GT(r.prunes, 0u);
  EXPECT_GT(r.duplicates, 0u);
  EXPECT_GE(r.relay_redundancy, 1.0);
  // Idle-tick coalescing actually engaged on the 64-host fabric.
  EXPECT_GT(r.suppressed_ticks, 0u);
}

TEST(GossipSim, DeterministicInSchedule) {
  const check::Schedule schedule = scenario::make_gossip_schedule(2);
  const scenario::GossipSimResult a = scenario::run_gossip_sim(schedule);
  const scenario::GossipSimResult b = scenario::run_gossip_sim(schedule);
  EXPECT_EQ(a.pass, b.pass);
  EXPECT_EQ(a.why, b.why);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.grafts, b.grafts);
  EXPECT_EQ(a.repairs_done, b.repairs_done);
  EXPECT_EQ(a.suppressed_ticks, b.suppressed_ticks);
}

TEST(GossipMutation, DisabledRepairIsCaughtAndShrinksToChurn) {
  // THE MUTATION CHECK. Reverting enable_repair must (a) be caught by
  // the overlay oracles under churn, (b) stay green without churn — the
  // oracles blame the repair path, not background noise — and (c) ddmin
  // the failing schedule down to the single restart episode.
  scenario::GossipSimConfig mutated = small_sim();
  mutated.overlay.membership.enable_repair = false;

  const check::Schedule churn = restart_schedule(3);
  const scenario::GossipSimResult broken =
      scenario::run_gossip_sim(churn, mutated);
  ASSERT_FALSE(broken.pass);

  check::Schedule calm = churn;
  calm.injectors.clear();
  const scenario::GossipSimResult quiet =
      scenario::run_gossip_sim(calm, mutated);
  EXPECT_TRUE(quiet.pass) << quiet.why;

  const check::ShrinkResult shrunk = check::shrink(
      churn,
      [&](const check::Schedule& candidate) {
        return !scenario::run_gossip_sim(candidate, mutated).pass;
      },
      64);
  EXPECT_TRUE(shrunk.converged);
  EXPECT_EQ(shrunk.schedule.episode_count(), 1u);
  EXPECT_TRUE(shrunk.schedule.has_kind(fault::FaultKind::kHostRestart));
}

TEST(GossipScenario, RegisteredWithOwnBudget) {
  bool found = false;
  for (std::size_t i = 0; i < scenario::kScenarioCount; ++i) {
    if (std::string(scenario::kScenarios[i].name) != "gossip") continue;
    found = true;
    EXPECT_EQ(scenario::kScenarios[i].seed_timeout_ms, 120000u);
    EXPECT_FALSE(scenario::kScenarios[i].in_default_sweep);
    EXPECT_NE(scenario::kScenarios[i].make, nullptr);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace ldlp
