// Self-similar traffic generation.
//
// Stand-in for the Bellcore Ethernet traces (Leland et al. [21]) the paper
// replays for Figure 7. The generator superposes many independent ON/OFF
// sources whose ON and OFF period lengths are Pareto-distributed with
// infinite variance (1 < alpha < 2); Willinger/Taqqu showed the aggregate
// converges to fractional Gaussian noise with Hurst parameter
// H = (3 - min(alpha_on, alpha_off)) / 2, which is precisely the model
// that explains the measured self-similarity of those traces. With the
// defaults (alpha = 1.2) the aggregate targets H ~= 0.9, matching the
// published estimates for the 1989 traces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "traffic/arrivals.hpp"

namespace ldlp::traffic {

struct SelfSimilarConfig {
  double mean_rate_per_sec = 1000.0;  ///< Aggregate target mean rate.
  std::uint32_t num_sources = 64;     ///< ON/OFF sources superposed.
  double alpha_on = 1.2;              ///< Pareto shape of ON periods.
  double alpha_off = 1.2;             ///< Pareto shape of OFF periods.
  double mean_on_sec = 0.05;          ///< Mean ON period length.
  double on_fraction = 0.2;           ///< E[on] / (E[on] + E[off]).
  double duration_sec = 1000.0;       ///< Paper uses the first 1000 s.
};

/// Generate a complete, time-sorted arrival trace. Packet sizes are drawn
/// from `sizes` (pass ethernet1989_sizes() for the Figure 7 workload).
/// Deterministic in (config, seed).
[[nodiscard]] std::vector<PacketArrival> generate_self_similar_trace(
    const SelfSimilarConfig& config, SizeModel& sizes, std::uint64_t seed);

}  // namespace ldlp::traffic
