// Chaos soak: the chaos scenarios of src/scenario run standalone over a
// wide seed range with full conformance checking. Every run is driven by
// an explicit check::Schedule (scenario + seed + per-host fault plans),
// judged by ldlp::check oracles — exactly-once in-order byte-exact TCP
// delivery, at-most-once integral UDP datagrams — and audited after every
// scheduler pass by per-host invariant checkers (TCP sequence pointers,
// reassembly table, ARP accounting). This file is the CLI, the seed
// fan-out, the shrinker and the report; scenario::kScenarios owns the
// scenarios and scenario::Harness runs them.
//
// On failure the harness serialises the run's schedule, delta-debugs it
// down to a minimal still-failing episode set (check::shrink), and writes
// the result as ldlp.schedule.v1 JSON. Any such file — or any hand-edited
// schedule — replays exactly with:
//
//   chaos_soak --replay=<schedule.json>
//
// Seed-range soaks use --seed_lo=<n> --seed_hi=<n> (half-open); --scenario
// restricts the run to one scenario name. Failing seeds are listed in
// BENCH_chaos_soak.json under config.failing_seeds. Exit status is nonzero
// when any seed fails, so the soak slots into CI.
//
// Every scenario is additionally judged by ldlp::recover: a
// ConvergenceOracle demands that once the last fault episode has cleared,
// every TCP connection reaches a terminal or quiescent state within a
// pass budget, and a ProgressWatchdog condemns hosts that hold queued
// work while their progress counters stand still. The *-heal scenarios
// draw fault plans from FaultPlan::random_heal(), which includes the
// network-healing kinds (partition, link-flap, host-restart) the legacy
// seed-stable draw excludes.
//
// Each schedule run is bounded by a wall-clock budget (--seed_timeout_ms,
// default from the registry, 0 disables): a hung seed becomes a reported
// failing seed with its schedule dumped instead of a hung CI job.
//
// --jobs=N runs the seeds on N real threads (ldlp::par::WorkerPool). Seeds
// are independent simulations, results land in seed-indexed slots, and all
// printing/shrinking happens after the barrier in seed order — so stdout,
// the failing-seed list and every shrunk schedule artifact are
// bit-identical to --jobs=1. --check_jobs=N proves it: the range is run
// serially and with N workers and the outcomes are compared field by
// field (nonzero exit on any divergence).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "check/schedule.hpp"
#include "check/shrink.hpp"
#include "obs/metrics.hpp"
#include "par/worker_pool.hpp"
#include "scenario/registry.hpp"

namespace {

using namespace ldlp;
using scenario::kScenarioCount;
using scenario::kScenarios;

void print_failure(const scenario::Result& r, const check::Schedule& schedule) {
  std::printf("  %s failure: %s\n", schedule.scenario.c_str(), r.why.c_str());
  if (!r.detail.empty()) std::printf("  %s\n", r.detail.c_str());
  for (const std::string& v : r.violations)
    std::printf("    %s\n", v.c_str());
  for (const check::InjectorSpec& spec : schedule.injectors)
    std::printf("  %s plan (rng seed %llu):\n%s", spec.host.c_str(),
                static_cast<unsigned long long>(spec.rng_seed),
                spec.plan.describe().c_str());
}

/// Shrink a failing schedule and write the minimal reproducer next to the
/// bench report. Returns the written path (empty on save failure).
std::string shrink_and_save(const check::Schedule& failing,
                            const std::string& out_dir,
                            std::uint64_t timeout_ms) {
  const check::ShrinkResult minimal = check::shrink(
      failing, [timeout_ms](const check::Schedule& candidate) {
        return !scenario::run(candidate, timeout_ms).pass;
      });
  std::printf(
      "  shrink: %zu -> %zu episodes in %zu runs%s\n",
      minimal.episodes_before, minimal.episodes_after, minimal.runs,
      minimal.converged ? "" : " (run budget hit; may not be 1-minimal)");
  const std::string path = out_dir + "/chaos_" + failing.scenario + "_seed" +
                           std::to_string(failing.seed) + ".schedule.json";
  if (!minimal.schedule.save(path)) {
    std::printf("  warning: could not write %s\n", path.c_str());
    return {};
  }
  std::printf("  minimal schedule: %s\n  reproduce: chaos_soak --replay=%s\n",
              path.c_str(), path.c_str());
  return path;
}

// ---------------------------------------------------------------------------
// Seed-range execution. One seed = one job for the worker pool: results go
// into seed-indexed slots, printing and shrinking stay on the main thread
// after the barrier, so the output stream is identical for any --jobs.

struct ScenarioOutcome {
  std::size_t si = 0;  ///< Index into kScenarios.
  scenario::Result res;
  check::Schedule schedule;
};

struct SeedOutcome {
  std::uint64_t seed = 0;
  std::vector<ScenarioOutcome> runs;  ///< In kScenarios order.

  [[nodiscard]] bool pass() const {
    for (const ScenarioOutcome& run : runs)
      if (!run.res.pass) return false;
    return true;
  }
};

/// Run seeds [seed_lo, seed_lo + count) across `jobs` workers. Per-worker
/// registries count scenario runs/failures and merge into `reg`
/// (order-independent combiners, so any jobs value yields the same
/// counters).
std::vector<SeedOutcome> compute_outcomes(std::uint64_t seed_lo,
                                          std::uint64_t count,
                                          const std::string& only,
                                          std::uint64_t jobs,
                                          std::uint64_t timeout_ms,
                                          obs::Registry& reg) {
  par::WorkerPool pool(static_cast<std::size_t>(jobs));
  std::vector<SeedOutcome> outcomes(count);
  pool.run(static_cast<std::size_t>(count),
           [&](std::size_t j, par::WorkerContext& ctx) {
             SeedOutcome& out = outcomes[j];
             out.seed = seed_lo + j;
             for (std::size_t si = 0; si < kScenarioCount; ++si) {
               const scenario::ScenarioInfo& def = kScenarios[si];
               if (only.empty() ? !def.in_default_sweep : only != def.name)
                 continue;
               ScenarioOutcome run;
               run.si = si;
               run.schedule = def.make(out.seed);
               run.res = def.run(run.schedule, timeout_ms);
               ctx.registry->counter("par.soak.scenarios").add(1);
               if (!run.res.pass)
                 ctx.registry->counter("par.soak.scenario_failures").add(1);
               out.runs.push_back(std::move(run));
             }
           });
  pool.publish(reg);
  pool.merge_registries(reg);
  return outcomes;
}

/// Field-by-field equality for the --check_jobs determinism audit.
bool outcomes_identical(const std::vector<SeedOutcome>& serial,
                        const std::vector<SeedOutcome>& parallel,
                        std::string* first_diff) {
  if (serial.size() != parallel.size()) {
    *first_diff = "outcome counts differ";
    return false;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const SeedOutcome& s = serial[i];
    const SeedOutcome& p = parallel[i];
    const std::string tag = "seed " + std::to_string(s.seed) + ": ";
    if (s.seed != p.seed || s.runs.size() != p.runs.size()) {
      *first_diff = tag + "seed/run-count mismatch";
      return false;
    }
    for (std::size_t r = 0; r < s.runs.size(); ++r) {
      const ScenarioOutcome& sr = s.runs[r];
      const ScenarioOutcome& pr = p.runs[r];
      if (sr.si != pr.si || sr.res.pass != pr.res.pass ||
          sr.res.why != pr.res.why ||
          sr.res.violations != pr.res.violations) {
        *first_diff = tag + std::string(kScenarios[sr.si].name) +
                      " verdict diverges";
        return false;
      }
      if (sr.schedule.to_json().dump(2) != pr.schedule.to_json().dump(2)) {
        *first_diff = tag + std::string(kScenarios[sr.si].name) +
                      " schedule serialisation diverges";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Flags flags(argc, argv);
  if (flags.flag("help") || flags.u64("help", 0) != 0) {
    std::printf(
        "chaos_soak: seeded fault schedules against oracle-checked "
        "protocol scenarios\n\n"
        "scenarios (--scenario=<name>; default sweep runs the unmarked "
        "ones):\n%s\n"
        "flags: --seed_lo --seed_hi --seeds --scenario --jobs --check_jobs\n"
        "       --seed_timeout_ms --replay=<schedule.json> --verbose "
        "--no_shrink --out_dir\n",
        scenario::scenario_help().c_str());
    return 0;
  }
  // Unset --seed_timeout_ms picks the scenario's registry default: fleet
  // and tail seeds pump 16-64 hosts per tick and legitimately need
  // minutes, not the two-host scenarios' 20 s. Explicit values
  // (including 0 = disabled) always win.
  const std::uint64_t timeout_flag =
      flags.u64("seed_timeout_ms", UINT64_MAX);
  const auto timeout_for = [timeout_flag](const std::string& scenario) {
    if (timeout_flag != UINT64_MAX) return timeout_flag;
    return scenario::default_timeout_ms(scenario);
  };

  // --replay runs one serialised schedule and reports, nothing else.
  const char* replay = flags.str("replay", nullptr);
  if (replay != nullptr) {
    std::string error;
    const auto schedule = check::Schedule::load(replay, &error);
    if (!schedule.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    std::printf("replaying %s: scenario %s, seed %llu, %zu episodes\n",
                replay, schedule->scenario.c_str(),
                static_cast<unsigned long long>(schedule->seed),
                schedule->episode_count());
    const scenario::Result r =
        scenario::run(*schedule, timeout_for(schedule->scenario));
    std::printf("%s\n", r.pass ? "PASS" : "FAIL");
    if (!r.pass) print_failure(r, *schedule);
    return r.pass ? 0 : 1;
  }

  // Seed range: --seed_lo/--seed_hi (half-open); --seed/--seeds remain as
  // aliases so existing reproduce lines keep working.
  const std::uint64_t seed_lo = flags.u64("seed_lo", flags.u64("seed", 1));
  const std::uint64_t seed_hi =
      flags.u64("seed_hi", seed_lo + flags.u64("seeds", 32));
  const std::uint64_t seeds = seed_hi > seed_lo ? seed_hi - seed_lo : 0;
  const bool verbose = flags.u64("verbose", 0) != 0;
  const bool no_shrink = flags.u64("no_shrink", 0) != 0;
  const std::string out_dir = flags.str("out_dir", ".");
  const std::string only = flags.str("scenario", "");
  const std::uint64_t timeout_ms = timeout_for(only);
  const std::uint64_t jobs = std::max<std::uint64_t>(1, flags.u64("jobs", 1));
  const std::uint64_t check_jobs = flags.u64("check_jobs", 0);
  if (!only.empty() && scenario::find_scenario(only) == nullptr) {
    std::fprintf(stderr,
                 "error: unknown --scenario '%s'; known scenarios:\n%s",
                 only.c_str(), scenario::scenario_help().c_str());
    return 2;
  }
  std::error_code mkdir_ec;
  std::filesystem::create_directories(out_dir, mkdir_ec);

  // --check_jobs: the parallel-determinism audit. Same range twice — one
  // worker, then N — and every verdict, reason, violation list and
  // schedule serialisation must agree.
  if (check_jobs > 0) {
    benchutil::heading("Chaos soak determinism check: --jobs=1 vs --jobs=N");
    std::printf("seeds [%llu, %llu), %llu workers\n",
                static_cast<unsigned long long>(seed_lo),
                static_cast<unsigned long long>(seed_hi),
                static_cast<unsigned long long>(check_jobs));
    obs::Registry serial_reg;
    obs::Registry parallel_reg;
    const auto serial =
        compute_outcomes(seed_lo, seeds, only, 1, timeout_ms, serial_reg);
    const auto parallel = compute_outcomes(seed_lo, seeds, only, check_jobs,
                                           timeout_ms, parallel_reg);
    std::string diff;
    if (!outcomes_identical(serial, parallel, &diff)) {
      std::printf("FAIL: %s\n", diff.c_str());
      return 1;
    }
    // The merged soak counters must agree too — the whole point of the
    // order-independent combiners. (par.pool.* self-description metrics
    // legitimately differ: worker count is part of the configuration.)
    const obs::Snapshot ss = serial_reg.snapshot();
    const obs::Snapshot ps = parallel_reg.snapshot();
    for (const char* name :
         {"par.soak.scenarios", "par.soak.scenario_failures"}) {
      if (ss.value(name) != ps.value(name)) {
        std::printf("FAIL: merged counter %s diverges: %.0f (jobs=1) vs "
                    "%.0f (jobs=%llu)\n",
                    name, ss.value(name), ps.value(name),
                    static_cast<unsigned long long>(check_jobs));
        return 1;
      }
    }
    std::printf("PASS: %llu seeds bit-identical across jobs=1 and jobs=%llu "
                "(%.0f scenario runs)\n",
                static_cast<unsigned long long>(seeds),
                static_cast<unsigned long long>(check_jobs),
                ss.value("par.soak.scenarios"));
    return 0;
  }

  ldlp::benchutil::BenchReport report("chaos_soak", flags);
  report.config_u64("seed_lo", seed_lo);
  report.config_u64("seed_hi", seed_hi);
  report.config_u64("jobs", jobs);

  benchutil::heading(
      "Chaos soak: TCP + DNS under seeded fault schedules, oracle-checked");
  std::printf("seeds [%llu, %llu); horizon %.1f s per plan%s%s\n\n",
              static_cast<unsigned long long>(seed_lo),
              static_cast<unsigned long long>(seed_hi), scenario::kHorizon,
              only.empty() ? "" : "; scenario ",
              only.empty() ? "" : only.c_str());

  obs::Registry reg;
  const std::vector<SeedOutcome> outcomes =
      compute_outcomes(seed_lo, seeds, only, jobs, timeout_ms, reg);

  // Reporting pass: main thread, seed order — identical for every --jobs.
  std::uint64_t failures = 0;
  std::uint64_t scenario_failures[kScenarioCount] = {};
  std::string failing_seeds;
  for (const SeedOutcome& out : outcomes) {
    const bool pass = out.pass();
    std::printf("seed %6llu", static_cast<unsigned long long>(out.seed));
    for (const ScenarioOutcome& run : out.runs) {
      std::printf("  %s:%s", kScenarios[run.si].name,
                  run.res.pass ? "PASS" : "FAIL");
      if (!run.res.pass) ++scenario_failures[run.si];
    }
    std::printf("\n");
    if (!pass || verbose) {
      for (const ScenarioOutcome& run : out.runs) {
        if (run.res.pass) continue;
        print_failure(run.res, run.schedule);
        if (!no_shrink) shrink_and_save(run.schedule, out_dir, timeout_ms);
      }
      std::printf(
          "  reproduce: chaos_soak --seed_lo=%llu --seed_hi=%llu "
          "--verbose=1\n",
          static_cast<unsigned long long>(out.seed),
          static_cast<unsigned long long>(out.seed + 1));
    }
    if (!pass) {
      ++failures;
      if (!failing_seeds.empty()) failing_seeds += ",";
      failing_seeds += std::to_string(out.seed);
    }
  }
  std::printf("\n%llu/%llu seeds passed\n",
              static_cast<unsigned long long>(seeds - failures),
              static_cast<unsigned long long>(seeds));
  report.config("failing_seeds", failing_seeds);
  if (!only.empty()) report.config("scenario", only);
  report.tolerance(0.0);  // pass/fail counts must match exactly
  report.metric("seeds_run", static_cast<double>(seeds));
  report.metric("seeds_failed", static_cast<double>(failures));
  // One metric per registry rollup name (rows may share one), in the
  // order the names first appear in the table.
  std::vector<std::pair<std::string, std::uint64_t>> rollups;
  for (std::size_t si = 0; si < kScenarioCount; ++si) {
    const auto it =
        std::find_if(rollups.begin(), rollups.end(), [si](const auto& r) {
          return r.first == kScenarios[si].rollup;
        });
    if (it == rollups.end())
      rollups.emplace_back(kScenarios[si].rollup, scenario_failures[si]);
    else
      it->second += scenario_failures[si];
  }
  for (const auto& [name, count] : rollups)
    report.metric(name, static_cast<double>(count));
  report.write();
  return failures == 0 ? 0 : 1;
}
