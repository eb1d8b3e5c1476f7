// Zipf flow popularity: which of many concurrent flows the next message
// belongs to. Rank r (0 = most popular) is drawn with probability
// proportional to 1 / (r + 1)^s; s = 0 is uniform, s = 1 the classic
// skew of destination popularity in Jain's traces (DEC-TR-592).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace ldlp::traffic {

class ZipfFlows {
 public:
  /// `flows` >= 1 ranks, skew `s` >= 0, deterministic in `seed`.
  ZipfFlows(std::uint32_t flows, double s, std::uint64_t seed);

  /// The next message's flow rank, in [0, flows).
  [[nodiscard]] std::uint32_t next();

 private:
  Rng rng_;
  std::vector<double> cdf_;  ///< cdf_[r] = P(rank <= r).
};

}  // namespace ldlp::traffic
