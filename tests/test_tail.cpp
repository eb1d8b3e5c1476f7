// Tail-at-scale RPC fan-out: determinism of the sweep engine, the
// LDLP-vs-conventional separation the bench reports, transport parity,
// and the chaos-soak scenario registry that runs the workload under
// fault plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "obs/bench_result.hpp"
#include "obs/metrics.hpp"
#include "rpc/fanout.hpp"
#include "scenario/registry.hpp"

namespace ldlp {
namespace {

rpc::TailSweepConfig small_sweep() {
  rpc::TailSweepConfig sweep;
  sweep.fanouts = {1, 4};
  sweep.base.requests = 60;
  sweep.base.rate_per_sec = 200.0;
  sweep.base.seed = 7;
  return sweep;
}

TEST(TailSweep, ByteIdenticalAcrossJobs) {
  // The sweep fans (mode, N) cells across a worker pool with
  // cell-indexed result slots; the emitted BENCH JSON must be
  // byte-identical for any worker count — that is what lets CI compare
  // the artifact against a checked-in baseline regardless of -j.
  const obs::BenchResult serial = rpc::run_tail_sweep(small_sweep(), 1);
  const obs::BenchResult parallel = rpc::run_tail_sweep(small_sweep(), 4);
  EXPECT_EQ(serial.to_json().dump(2), parallel.to_json().dump(2));
}

TEST(TailSweep, DeterministicInSeedAndCompletes) {
  const obs::BenchResult a = rpc::run_tail_sweep(small_sweep(), 2);
  const obs::BenchResult b = rpc::run_tail_sweep(small_sweep(), 2);
  EXPECT_EQ(a.to_json().dump(2), b.to_json().dump(2));
  // Every cell drained: completed == requests, no incompletes.
  for (const char* prefix : {"conv.", "ldlp."}) {
    for (const char* n : {"n1", "n4"}) {
      const std::string cell = std::string(prefix) + n;
      ASSERT_TRUE(a.metric(cell + ".completed").has_value()) << cell;
      EXPECT_EQ(a.metric(cell + ".completed").value(), 60.0) << cell;
      EXPECT_EQ(a.metric(cell + ".incomplete").value(), 0.0) << cell;
      EXPECT_GT(a.metric(cell + ".p99_sec").value(), 0.0) << cell;
      EXPECT_GE(a.metric(cell + ".p999_sec").value(),
                a.metric(cell + ".p50_sec").value())
          << cell;
    }
  }
}

TEST(TailWorkload, LdlpBeatsConventionalAtScale) {
  // The headline claim: under the calibrated per-message vs batched CPU
  // model, conventional processing's per-message overhead compounds with
  // fan-out degree while LDLP amortizes it — so at N=16 both the mean
  // and the p99 must clearly favour LDLP.
  rpc::TailRunConfig cfg;
  cfg.fanout = 16;
  cfg.requests = 80;
  cfg.rate_per_sec = 200.0;
  cfg.seed = 3;
  cfg.mode = core::SchedMode::kConventional;
  const rpc::TailRunResult conv = rpc::run_tail_workload(cfg);
  cfg.mode = core::SchedMode::kLdlp;
  const rpc::TailRunResult ldlp = rpc::run_tail_workload(cfg);
  ASSERT_TRUE(conv.ok);
  ASSERT_TRUE(ldlp.ok);
  EXPECT_LT(ldlp.mean_sec, conv.mean_sec);
  EXPECT_LT(ldlp.p99_sec, conv.p99_sec);
}

TEST(TailWorkload, TcpTransportDrains) {
  rpc::TailRunConfig cfg;
  cfg.fanout = 4;
  cfg.requests = 40;
  cfg.rate_per_sec = 100.0;
  cfg.seed = 5;
  cfg.fanout_cfg.transport = rpc::FanoutTransport::kTcp;
  const rpc::TailRunResult r = rpc::run_tail_workload(cfg);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.completed, 40u);
  EXPECT_GT(r.p99_sec, 0.0);
}

// ------------------------------------------------------ scenario registry

TEST(SoakScenarios, RegistryIsComplete) {
  // The regression that motivated the registry: a scenario added to the
  // sweep list but missed by the timeout table (or the --help text).
  // Every entry must be fully populated, and names must be unique.
  std::set<std::string> names;
  for (const scenario::ScenarioInfo& def : scenario::kScenarios) {
    ASSERT_NE(def.name, nullptr);
    EXPECT_FALSE(std::string(def.name).empty());
    EXPECT_TRUE(names.insert(def.name).second)
        << "duplicate scenario name " << def.name;
    EXPECT_NE(def.make, nullptr) << def.name;
    EXPECT_NE(def.run, nullptr) << def.name;
    EXPECT_GT(def.seed_timeout_ms, 0u) << def.name;
    // Report rollups are keyed by name, never by table position.
    ASSERT_NE(def.rollup, nullptr) << def.name;
    EXPECT_FALSE(std::string(def.rollup).empty()) << def.name;
    ASSERT_NE(def.blurb, nullptr) << def.name;
    EXPECT_FALSE(std::string(def.blurb).empty()) << def.name;
    // The maker must stamp its own registered name and the seed into the
    // schedule — replay and shrink artifacts key on both.
    const check::Schedule s = def.make(42);
    EXPECT_EQ(s.scenario, def.name);
    EXPECT_EQ(s.seed, 42u);
    EXPECT_FALSE(s.injectors.empty()) << def.name;
  }
  EXPECT_TRUE(names.count("tail") == 1)
      << "tail scenario missing from the registry";
}

TEST(SoakScenarios, RollupsKeepTheirReportNames) {
  // BENCH_chaos_soak.json's failure metrics: the two loss-profile TCP
  // scenarios share tcp_failures and the two healing scenarios share
  // heal_failures; the rest count alone.
  const std::pair<const char*, const char*> expected[] = {
      {"tcp", "tcp_failures"},         {"tcp-slow", "tcp_failures"},
      {"dns", "dns_failures"},         {"tcp-heal", "heal_failures"},
      {"dns-heal", "heal_failures"},   {"fleet", "fleet_failures"},
      {"tail", "tail_failures"},       {"gossip", "gossip_failures"},
      {"clocks", "clocks_failures"},
  };
  for (const auto& [name, rollup] : expected) {
    const scenario::ScenarioInfo* def = scenario::find_scenario(name);
    ASSERT_NE(def, nullptr) << name;
    EXPECT_EQ(std::string(def->rollup), rollup) << name;
  }
}

TEST(SoakScenarios, LookupAndTimeoutDefaults) {
  for (const scenario::ScenarioInfo& def : scenario::kScenarios) {
    const scenario::ScenarioInfo* found = scenario::find_scenario(def.name);
    ASSERT_EQ(found, &def);
    EXPECT_EQ(scenario::default_timeout_ms(def.name), def.seed_timeout_ms);
  }
  EXPECT_EQ(scenario::find_scenario("no-such-scenario"), nullptr);
  // The default sweep budgets for its slowest member, and is never zero.
  std::uint64_t max_sweep_ms = 0;
  for (const scenario::ScenarioInfo& def : scenario::kScenarios)
    if (def.in_default_sweep)
      max_sweep_ms = std::max(max_sweep_ms, def.seed_timeout_ms);
  EXPECT_EQ(scenario::default_timeout_ms(""), max_sweep_ms);
  EXPECT_GT(max_sweep_ms, 0u);
}

TEST(SoakScenarios, HelpListsEveryScenario) {
  const std::string help = scenario::scenario_help();
  for (const scenario::ScenarioInfo& def : scenario::kScenarios) {
    EXPECT_NE(help.find(def.name), std::string::npos) << def.name;
    EXPECT_NE(help.find(def.blurb), std::string::npos) << def.name;
  }
}

}  // namespace
}  // namespace ldlp
