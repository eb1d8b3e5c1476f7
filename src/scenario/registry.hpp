// Chaos scenario registry: one table owns every scenario's name, schedule
// maker, runner, per-seed wall-clock budget, default-sweep membership,
// failure rollup and help blurb. chaos_soak's --help listing, --scenario
// validation, --seed_timeout_ms defaults, dispatch and report rollups all
// derive from this table, so adding a scenario in one place updates them
// together.
//
// Schedules are the canonical per-seed adversity: deterministic functions
// of the soak seed, serialisable as ldlp.schedule.v1, replayable with
// chaos_soak --replay. Each scenario perturbs the seed with its own salt
// so one soak seed exercises distinct fault timelines
// (tests/golden/soak_schedules.json pins every maker's output).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "check/schedule.hpp"
#include "scenario/harness.hpp"

namespace ldlp::scenario {

/// Fault horizon of the two-host scenarios' per-host plans.
inline constexpr double kHorizon = 1.0;

// Fleet topology (fleet, gossip, clocks): 8 racks x 8 hosts behind 2
// spines (64 hosts, 10 switches, 80 links). Its schedules carry one
// "fabric" spec (the topology-scoped plan: correlated switch/rack cuts,
// asymmetric partitions, flaps, loss) plus per-host "h<i>" victims.
inline constexpr Topology kFleet{8, 8, 2};
inline constexpr std::size_t kFleetHosts = kFleet.racks * kFleet.hosts_per_rack;
inline constexpr double kFleetHorizon = 2.0;

// Tail topology: a 16-host fat-tree (4 racks x 4, 2 spines) carrying the
// RPC fan-out workload from src/rpc/fanout.hpp under a topology-scoped
// plan and no host churn.
inline constexpr Topology kTail{4, 4, 2};
inline constexpr std::size_t kTailHosts = kTail.racks * kTail.hosts_per_rack;
inline constexpr double kTailHorizon = 2.0;

// Schedule makers.
check::Schedule make_tcp_schedule(std::uint64_t seed);
/// Slow-reader TCP: a bigger transfer into an application that drains its
/// socket in a trickle, so the receive buffer rides against hiwat — the
/// regime where LDLP's deferred sbappend makes the advertised window
/// momentarily stale.
check::Schedule make_tcp_slow_schedule(std::uint64_t seed);
check::Schedule make_dns_schedule(std::uint64_t seed);
/// TCP under the healing kinds (partitions, link flaps, host restarts):
/// the stream may be truncated, but what arrives must be the exact
/// prefix, and the network must converge once the faults clear.
check::Schedule make_tcp_heal_schedule(std::uint64_t seed);
/// DNS across partitions and link flaps; restarts are excluded because a
/// reboot wipes the server's binding and zone, which the scenario's fixed
/// server object does not model.
check::Schedule make_dns_heal_schedule(std::uint64_t seed);
/// Fleet plan plus two hosts that crash and reboot mid-run.
check::Schedule make_fleet_schedule(std::uint64_t seed);
check::Schedule make_tail_schedule(std::uint64_t seed);
/// Fleet plan plus two restart victims the overlay must re-admit.
check::Schedule make_gossip_schedule(std::uint64_t seed);
/// Fleet plan plus three victims in distinct racks with clock-kind-only
/// plans (skew, drift, stall, timer storm).
check::Schedule make_clocks_schedule(std::uint64_t seed);

// Scenario runners (workloads over a Harness); `timeout_ms` is the
// per-seed wall-clock budget (0 = none).
Result run_tcp(const check::Schedule& schedule, std::uint64_t timeout_ms);
Result run_tcp_slow(const check::Schedule& schedule, std::uint64_t timeout_ms);
Result run_dns(const check::Schedule& schedule, std::uint64_t timeout_ms);
Result run_fleet(const check::Schedule& schedule, std::uint64_t timeout_ms);
Result run_tail(const check::Schedule& schedule, std::uint64_t timeout_ms);
Result run_gossip(const check::Schedule& schedule, std::uint64_t timeout_ms);
Result run_clocks(const check::Schedule& schedule, std::uint64_t timeout_ms);

/// Everything chaos_soak needs to know about one scenario.
struct ScenarioInfo {
  const char* name;
  check::Schedule (*make)(std::uint64_t seed);
  Result (*run)(const check::Schedule& schedule, std::uint64_t timeout_ms);
  /// Default --seed_timeout_ms when the flag is unset. Fleet-scale
  /// scenarios pump dozens of hosts per tick and legitimately need
  /// minutes, not the two-host scenarios' 20 s.
  std::uint64_t seed_timeout_ms;
  /// False: only runs when named via --scenario (keeps the default
  /// sweep's per-seed cost stable as heavyweight scenarios are added).
  bool in_default_sweep;
  /// BENCH_chaos_soak.json metric that counts this scenario's failures
  /// (rows may share one).
  const char* rollup;
  const char* blurb;  ///< One --help line.
};

inline constexpr ScenarioInfo kScenarios[] = {
    {"tcp", &make_tcp_schedule, &run_tcp, 20000, true, "tcp_failures",
     "8 KB stream, two hosts, legacy loss/corruption adversity"},
    {"tcp-slow", &make_tcp_slow_schedule, &run_tcp_slow, 20000, true,
     "tcp_failures",
     "24 KB stream into a trickle reader (stale-window regime)"},
    {"dns", &make_dns_schedule, &run_dns, 20000, true, "dns_failures",
     "8 parallel lookups with retries under datagram adversity"},
    {"tcp-heal", &make_tcp_heal_schedule, &run_tcp, 20000, true,
     "heal_failures",
     "stream across partitions, link flaps and host restarts"},
    {"dns-heal", &make_dns_heal_schedule, &run_dns, 20000, true,
     "heal_failures", "lookups across partitions and flaps (no restarts)"},
    {"fleet", &make_fleet_schedule, &run_fleet, 60000, false,
     "fleet_failures",
     "64-host fat-tree, cross-rack streams, switch cuts + host churn"},
    {"tail", &make_tail_schedule, &run_tail, 60000, false, "tail_failures",
     "16-host RPC fan-out (tail workload) under fleet fault plans"},
    {"gossip", &make_gossip_schedule, &run_gossip, 120000, false,
     "gossip_failures",
     "64-host HyParView/PlumTree overlay: broadcast storm + churn"},
    {"clocks", &make_clocks_schedule, &run_clocks, 120000, false,
     "clocks_failures",
     "gossip fleet with skewed/stalled clocks + timer storms, timer oracles"},
};
inline constexpr std::size_t kScenarioCount =
    sizeof(kScenarios) / sizeof(kScenarios[0]);

namespace detail {
constexpr bool str_eq(const char* a, const char* b) {
  while (*a != '\0' && *a == *b) { ++a; ++b; }
  return *a == *b;
}
/// Every registry entry must be complete — in particular carry its own
/// non-zero --seed_timeout_ms default (a scenario that silently inherits
/// a budget sized for cheaper siblings times out spuriously).
constexpr bool registry_complete() {
  for (std::size_t i = 0; i < kScenarioCount; ++i) {
    const ScenarioInfo& def = kScenarios[i];
    if (def.name == nullptr || def.name[0] == '\0') return false;
    // def.make and def.run are checked at runtime by the registry tests
    // (test_tail): gcc under -fsanitize refuses to constant-fold a
    // function-pointer-vs-null comparison.
    if (def.seed_timeout_ms == 0) return false;
    if (def.rollup == nullptr || def.rollup[0] == '\0') return false;
    if (def.blurb == nullptr || def.blurb[0] == '\0') return false;
    for (std::size_t j = i + 1; j < kScenarioCount; ++j)
      if (str_eq(def.name, kScenarios[j].name)) return false;
  }
  return true;
}
}  // namespace detail
static_assert(detail::registry_complete(),
              "scenario registry: every entry needs a unique name, a "
              "non-zero seed_timeout_ms, a rollup and a help blurb");

[[nodiscard]] inline const ScenarioInfo* find_scenario(
    std::string_view name) noexcept {
  for (const ScenarioInfo& def : kScenarios)
    if (name == def.name) return &def;
  return nullptr;
}

/// Run `schedule` with its registered scenario ("unknown scenario" fails).
Result run(const check::Schedule& schedule, std::uint64_t timeout_ms);

/// Default per-seed wall budget for --scenario=<name>; an empty name (the
/// default sweep) budgets for its slowest member so no scenario in the
/// sweep can be starved by a cheaper sibling's default.
[[nodiscard]] inline std::uint64_t default_timeout_ms(std::string_view name) {
  if (const ScenarioInfo* def = find_scenario(name); def != nullptr)
    return def->seed_timeout_ms;
  std::uint64_t ms = 0;
  for (const ScenarioInfo& def : kScenarios)
    if (def.in_default_sweep) ms = std::max(ms, def.seed_timeout_ms);
  return ms;
}

/// The --help scenario listing, one line per registered scenario.
[[nodiscard]] std::string scenario_help();

}  // namespace ldlp::scenario
