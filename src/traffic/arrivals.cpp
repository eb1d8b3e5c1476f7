#include "traffic/arrivals.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ldlp::traffic {

PoissonSource::PoissonSource(double rate_per_sec,
                             std::unique_ptr<SizeModel> sizes,
                             std::uint64_t seed)
    : mean_gap_(1.0 / rate_per_sec), sizes_(std::move(sizes)), rng_(seed) {
  LDLP_ASSERT(rate_per_sec > 0.0);
  LDLP_ASSERT(sizes_ != nullptr);
}

std::optional<PacketArrival> PoissonSource::next() {
  now_ += rng_.exponential(mean_gap_);
  return PacketArrival{now_, sizes_->sample(rng_)};
}

DeterministicSource::DeterministicSource(double rate_per_sec,
                                         std::uint32_t size_bytes)
    : gap_(1.0 / rate_per_sec), size_(size_bytes) {
  LDLP_ASSERT(rate_per_sec > 0.0);
}

std::optional<PacketArrival> DeterministicSource::next() {
  now_ += gap_;
  return PacketArrival{now_, size_};
}

BurstSource::BurstSource(double burst_rate_per_sec, std::uint32_t burst_len,
                         double intra_gap_sec, std::uint32_t size_bytes,
                         std::uint64_t seed)
    : mean_burst_gap_(1.0 / burst_rate_per_sec),
      burst_len_(burst_len),
      intra_gap_(intra_gap_sec),
      size_(size_bytes),
      rng_(seed) {
  LDLP_ASSERT(burst_rate_per_sec > 0.0 && burst_len > 0);
}

std::optional<PacketArrival> BurstSource::next() {
  if (first_ || in_burst_ == burst_len_) {
    // The next burst never begins before the previous one finished, so the
    // stream stays monotone even when the exponential gap is tiny.
    const eventsim::SimTime prev_end =
        first_ ? 0.0 : burst_start_ + (burst_len_ - 1) * intra_gap_;
    burst_start_ = std::max(prev_end,
                            burst_start_ + rng_.exponential(mean_burst_gap_));
    in_burst_ = 0;
    first_ = false;
  }
  const eventsim::SimTime t = burst_start_ + in_burst_ * intra_gap_;
  ++in_burst_;
  return PacketArrival{t, size_};
}

std::vector<PacketArrival> collect(ArrivalSource& source,
                                   eventsim::SimTime horizon,
                                   std::size_t max_count) {
  std::vector<PacketArrival> out;
  while (out.size() < max_count) {
    auto arrival = source.next();
    if (!arrival.has_value() || arrival->time > horizon) break;
    out.push_back(*arrival);
  }
  return out;
}

}  // namespace ldlp::traffic
