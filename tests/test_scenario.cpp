// ldlp::scenario — the one chaos-scenario harness and its registry.
//
// The hygiene check every scenario ends with must fire: each test builds
// one bad state on a two-host harness and expects the exact reason. The
// registry's schedule makers are pinned byte for byte against
// tests/golden/soak_schedules.json, so a change to any seed salt or RNG
// draw order (which would silently change every soak seed's adversity
// and orphan every saved reproducer) fails here.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "buf/packet.hpp"
#include "check/schedule.hpp"
#include "core/message.hpp"
#include "fault/fault_plan.hpp"
#include "obs/json.hpp"
#include "scenario/harness.hpp"
#include "scenario/registry.hpp"

#ifndef LDLP_GOLDEN_DIR
#define LDLP_GOLDEN_DIR "tests/golden"
#endif

namespace ldlp {
namespace {

check::Schedule empty_schedule() {
  check::Schedule s;
  s.scenario = "tcp";
  s.seed = 1;
  return s;
}

TEST(Harness, TwoHostPairIsNamedAAndB) {
  scenario::Harness h(empty_schedule(), scenario::Topology{}, 0);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h.host(0).name(), "a");
  EXPECT_EQ(h.host(1).name(), "b");
  EXPECT_EQ(h.fabric().link_count(), 1u);
  EXPECT_EQ(h.fabric().switch_count(), 0u);
}

TEST(Harness, CleanRunSettlesClean) {
  scenario::Harness h(empty_schedule(), scenario::Topology{}, 0);
  h.fabric().run_for(0.1);
  scenario::Result r;
  h.settle(r);
  h.fold_audits(r);
  EXPECT_TRUE(r.pass) << r.why;
  EXPECT_TRUE(r.violations.empty());
}

TEST(Harness, HeldMbufIsALeak) {
  scenario::Harness h(empty_schedule(), scenario::Topology{}, 0);
  buf::Packet held = buf::Packet::make(h.host(1).pool());
  ASSERT_TRUE(static_cast<bool>(held));
  scenario::Result r;
  h.settle(r);
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.why, "b: mbuf leak (1 outstanding)");
}

TEST(Harness, UnrunFrameIsAnUndrainedBacklog) {
  scenario::Harness h(empty_schedule(), scenario::Topology{}, 0);
  // Straight into the graph, past the device: no pump ever runs it.
  stack::Host& a = h.host(0);
  a.graph().inject(0, core::Message(buf::Packet::make(a.pool())));
  scenario::Result r;
  h.settle(r);
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.why, "a: graph backlog not drained");
}

TEST(Harness, UnknownInjectorHostIsIgnored) {
  check::Schedule s = empty_schedule();
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kHostRestart, 0.1, 0.2, 0.0, 0, 0.0});
  s.injectors.push_back({"zz", 7, plan});
  s.injectors.push_back({"b", 8, plan});
  scenario::Harness h(s, scenario::Topology{}, 0);
  EXPECT_EQ(h.injector(0), nullptr);
  ASSERT_NE(h.injector(1), nullptr);
  EXPECT_FALSE(h.restart_victim(0));
  EXPECT_TRUE(h.restart_victim(1));
  scenario::Result r;
  h.settle(r);
  EXPECT_TRUE(r.pass) << r.why;
}

TEST(Harness, ExpiredDeadlineFailsTheSeed) {
  scenario::Harness h(empty_schedule(), scenario::Topology{}, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(h.expired());
  scenario::Result r;
  h.settle(r);
  EXPECT_FALSE(r.pass);
  EXPECT_EQ(r.why, "seed wall-clock budget exceeded (--seed_timeout_ms)");
}

TEST(Harness, FoldReportsEveryViolation) {
  struct Checker {
    std::vector<std::string> found{"first", "second"};
    [[nodiscard]] const std::vector<std::string>& violations() const {
      return found;
    }
  };
  scenario::Result r;
  scenario::fold(r, Checker{}, "some oracle", "tag");
  EXPECT_EQ(r.why, "some oracle: first");
  EXPECT_EQ(r.violations,
            (std::vector<std::string>{"tag: first", "tag: second"}));
}

TEST(Registry, DispatchRunsTheNamedScenario) {
  const scenario::Result r =
      scenario::run(scenario::make_tcp_schedule(1), /*timeout_ms=*/0);
  EXPECT_TRUE(r.pass) << r.why << "\n" << r.detail;
  check::Schedule unknown = empty_schedule();
  unknown.scenario = "no-such-scenario";
  const scenario::Result u = scenario::run(unknown, 0);
  EXPECT_FALSE(u.pass);
  EXPECT_EQ(u.why, "unknown scenario 'no-such-scenario'");
}

TEST(Registry, SchedulesMatchGoldenFile) {
  obs::Json all = obs::Json::array();
  for (const scenario::ScenarioInfo& def : scenario::kScenarios)
    for (const std::uint64_t seed : {1, 2, 46, 69, 113})
      all.push_back(def.make(seed).to_json());
  const std::string path =
      std::string(LDLP_GOLDEN_DIR) + "/soak_schedules.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(all.dump(2) + "\n", golden.str());
}

}  // namespace
}  // namespace ldlp
