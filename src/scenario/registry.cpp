#include "scenario/registry.hpp"

#include <utility>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "net/fleet_plan.hpp"

namespace ldlp::scenario {

namespace {

using PlanDraw = fault::FaultPlan (*)(std::uint64_t seed);

/// Two-host schedule: host "a" draws its plan from `base = seed ^ salt`,
/// host "b" from `base ^ 0xbeef`.
check::Schedule two_host(const char* name, std::uint64_t seed,
                         std::uint64_t salt, PlanDraw draw) {
  const std::uint64_t base = seed ^ salt;
  check::Schedule s;
  s.scenario = name;
  s.seed = seed;
  s.injectors.push_back({"a", base * 2 + 1, draw(base)});
  s.injectors.push_back({"b", base * 2 + 2, draw(base ^ 0xbeefULL)});
  return s;
}

fault::FaultPlan legacy_draw(std::uint64_t base) {
  return fault::FaultPlan::random(base, kHorizon);
}

fault::FaultPlan heal_draw(std::uint64_t base) {
  return fault::FaultPlan::random_heal(base, kHorizon);
}

/// Fat-tree schedule: one "fabric" spec with `episodes` topology-scoped
/// windows over `horizon` seconds.
check::Schedule fat_tree(const char* name, std::uint64_t seed,
                         std::uint64_t base, Topology topo, double horizon,
                         std::size_t episodes) {
  net::FleetShape shape;
  shape.hosts = topo.racks * topo.hosts_per_rack;
  shape.links = shape.hosts + topo.racks * topo.spines;
  shape.switches = topo.spines + topo.racks;
  shape.racks = topo.racks;
  shape.sites = 1;
  check::Schedule s;
  s.scenario = name;
  s.seed = seed;
  s.injectors.push_back(
      {"fabric", base * 2 + 1,
       net::random_fleet_plan(base, horizon, shape, episodes)});
  return s;
}

/// The fleet plan plus host churn: two distinct seed-chosen hosts crash
/// and reboot mid-run, losing PCBs, ARP and ring contents.
check::Schedule fleet_with_churn(const char* name, std::uint64_t seed,
                                 std::uint64_t base) {
  check::Schedule s =
      fat_tree(name, seed, base, kFleet, kFleetHorizon, /*episodes=*/6);
  Rng rng(base ^ 0xc42bULL);
  const std::uint32_t first =
      static_cast<std::uint32_t>(rng.bounded(kFleetHosts));
  const std::uint32_t second = static_cast<std::uint32_t>(
      (first + 1 + rng.bounded(kFleetHosts - 1)) % kFleetHosts);
  const std::uint32_t victims[2] = {first, second};
  for (std::uint64_t k = 0; k < 2; ++k) {
    fault::Episode e;
    e.kind = fault::FaultKind::kHostRestart;
    e.start = rng.uniform(0.3, 0.7 * kFleetHorizon);
    e.end = e.start + rng.uniform(0.05, 0.3);
    fault::FaultPlan plan;
    plan.add(e);
    s.injectors.push_back(
        {"h" + std::to_string(victims[k]), base * 3 + 5 + k, std::move(plan)});
  }
  return s;
}

}  // namespace

check::Schedule make_tcp_schedule(std::uint64_t seed) {
  return two_host("tcp", seed, 0, &legacy_draw);
}

check::Schedule make_tcp_slow_schedule(std::uint64_t seed) {
  return two_host("tcp-slow", seed, 0x51deULL, &legacy_draw);
}

check::Schedule make_dns_schedule(std::uint64_t seed) {
  return two_host("dns", seed, 0xd15ULL, &legacy_draw);
}

check::Schedule make_tcp_heal_schedule(std::uint64_t seed) {
  return two_host("tcp-heal", seed, 0x4ea1ULL, &heal_draw);
}

check::Schedule make_dns_heal_schedule(std::uint64_t seed) {
  return two_host("dns-heal", seed, 0xd05ea1ULL, [](std::uint64_t base) {
    return fault::FaultPlan::random_heal(base, kHorizon, 6,
                                         /*allow_restart=*/false);
  });
}

check::Schedule make_fleet_schedule(std::uint64_t seed) {
  return fleet_with_churn("fleet", seed, seed ^ 0xf1ee7ULL);
}

check::Schedule make_gossip_schedule(std::uint64_t seed) {
  return fleet_with_churn("gossip", seed, seed ^ 0x9055ULL);
}

check::Schedule make_clocks_schedule(std::uint64_t seed) {
  const std::uint64_t base = seed ^ 0xc10c5ULL;
  check::Schedule s =
      fat_tree("clocks", seed, base, kFleet, kFleetHorizon, /*episodes=*/6);
  // Three victims spread across distinct racks (stride > hosts_per_rack
  // guarantees distinctness), each with its own clock-kind-only plan.
  Rng rng(base ^ 0xc42bULL);
  const std::uint32_t first =
      static_cast<std::uint32_t>(rng.bounded(kFleetHosts));
  for (std::uint32_t k = 0; k < 3; ++k) {
    const std::uint32_t victim =
        (first + k * static_cast<std::uint32_t>(kFleetHosts / 3)) %
        kFleetHosts;
    s.injectors.push_back(
        {"h" + std::to_string(victim), base * 3 + 5 + k,
         fault::FaultPlan::random_clocks(base ^ (0x5eedULL * (k + 1)),
                                         kFleetHorizon)});
  }
  return s;
}

check::Schedule make_tail_schedule(std::uint64_t seed) {
  return fat_tree("tail", seed, seed ^ 0x7a11ULL, kTail, kTailHorizon,
                  /*episodes=*/4);
}

Result run(const check::Schedule& schedule, std::uint64_t timeout_ms) {
  if (const ScenarioInfo* def = find_scenario(schedule.scenario))
    return def->run(schedule, timeout_ms);
  Result r;
  r.fail("unknown scenario '" + schedule.scenario + "'");
  return r;
}

std::string scenario_help() {
  std::string out;
  for (const ScenarioInfo& def : kScenarios) {
    const std::string_view name(def.name);
    out += "  ";
    out += name;
    out.append(name.size() < 10 ? 10 - name.size() : 1, ' ');
    out += def.blurb;
    out += def.in_default_sweep ? "" : "  [--scenario only]";
    out += " (timeout ";
    out += std::to_string(def.seed_timeout_ms);
    out += " ms)\n";
  }
  return out;
}

}  // namespace ldlp::scenario
