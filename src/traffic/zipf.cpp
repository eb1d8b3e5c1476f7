#include "traffic/zipf.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace ldlp::traffic {

ZipfFlows::ZipfFlows(std::uint32_t flows, double s, std::uint64_t seed)
    : rng_(seed), cdf_(flows) {
  LDLP_ASSERT(flows >= 1 && s >= 0.0);
  double total = 0.0;
  for (std::uint32_t r = 0; r < flows; ++r) {
    total += std::pow(static_cast<double>(r + 1), -s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t ZipfFlows::next() {
  const auto rank = static_cast<std::uint32_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), rng_.uniform()) -
      cdf_.begin());
  return std::min(rank, static_cast<std::uint32_t>(cdf_.size() - 1));
}

}  // namespace ldlp::traffic
