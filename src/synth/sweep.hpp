// Multi-run parameter sweeps over the paper's synthetic stack.
//
// The paper averages 100 one-second runs per point, each with a fresh
// random memory layout (section 4). These helpers run that protocol for
// an arrival-rate sweep (Figures 5 and 6 share one sweep) and a CPU-clock
// sweep over a fixed arrival trace (Figure 7).
#pragma once

#include <cstdint>
#include <vector>

#include "synth/engine.hpp"
#include "traffic/arrivals.hpp"

namespace ldlp::synth {

struct SweepPoint {
  double x = 0.0;     ///< Arrival rate (msgs/sec) or CPU clock (Hz).
  EngineResult mean;  ///< Field-wise mean over runs.
};

struct SweepOptions {
  std::uint32_t runs = 100;        ///< Runs per point (fresh layout each).
  double run_seconds = 1.0;        ///< Horizon per run.
  std::uint64_t seed = 0x5eed;     ///< Master seed (layouts + arrivals).
};

/// Figures 5/6: Poisson arrivals of 552-byte messages, rate sweep. `base`
/// is a config from conventional(), ilp() or ldlp().
[[nodiscard]] std::vector<SweepPoint> sweep_poisson_rates(
    const EngineConfig& base, const std::vector<double>& rates,
    const SweepOptions& options);

/// Figure 7: fixed arrival trace, CPU clock sweep. The trace is replayed
/// identically at every clock speed; only service times change.
[[nodiscard]] std::vector<SweepPoint> sweep_cpu_clock(
    const EngineConfig& base, const std::vector<traffic::PacketArrival>& trace,
    const std::vector<double>& clocks_hz, const SweepOptions& options);

/// Mean over runs of the counts, the mean latency, the misses per message
/// and the batch; percentiles and breakdowns are left empty.
[[nodiscard]] EngineResult average(const std::vector<EngineResult>& results);

}  // namespace ldlp::synth
