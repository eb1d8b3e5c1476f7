// One benchmark run: set-up, closed phase, open phase and (with --trace 1)
// the traced run, for the three schedules of one workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/workload.hpp"

namespace rxbench {

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< Traced run: where the spans go ("" = nowhere).
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::string error;  ///< First content or ledger mismatch.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

[[nodiscard]] RunResult run_benchmark(const RunConfig& cfg);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string to_json(const RunResult& result);

}  // namespace rxbench
