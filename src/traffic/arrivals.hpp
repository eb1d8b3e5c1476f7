// Packet arrival processes.
//
// Every source yields a monotone stream of (arrival time, packet size)
// pairs. Section 4 of the paper drives the synthetic stack from a Poisson
// source of 552-byte messages (Figures 5, 6) and from Ethernet traces
// (Figure 7) — the latter replaced here by a self-similar generator (see
// self_similar.hpp and DESIGN.md section 2).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "eventsim/event_queue.hpp"
#include "traffic/size_models.hpp"

namespace ldlp::traffic {

struct PacketArrival {
  eventsim::SimTime time = 0.0;
  std::uint32_t size_bytes = 0;

  friend bool operator==(const PacketArrival&, const PacketArrival&) = default;
};

/// Pull-based arrival stream. next() returns arrivals in nondecreasing
/// time order; nullopt means the source is exhausted.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  [[nodiscard]] virtual std::optional<PacketArrival> next() = 0;
};

/// Poisson arrivals at a fixed mean rate.
class PoissonSource final : public ArrivalSource {
 public:
  PoissonSource(double rate_per_sec, std::unique_ptr<SizeModel> sizes,
                std::uint64_t seed);

  [[nodiscard]] std::optional<PacketArrival> next() override;

 private:
  double mean_gap_;
  std::unique_ptr<SizeModel> sizes_;
  Rng rng_;
  eventsim::SimTime now_ = 0.0;
};

/// Fixed inter-arrival gap (paced load for tests and calibration).
class DeterministicSource final : public ArrivalSource {
 public:
  DeterministicSource(double rate_per_sec, std::uint32_t size_bytes);

  [[nodiscard]] std::optional<PacketArrival> next() override;

 private:
  double gap_;
  std::uint32_t size_;
  eventsim::SimTime now_ = 0.0;
};

/// Back-to-back bursts of `burst_len` packets, bursts spaced by
/// exponential gaps — a crude stress pattern for batch-formation tests.
class BurstSource final : public ArrivalSource {
 public:
  BurstSource(double burst_rate_per_sec, std::uint32_t burst_len,
              double intra_gap_sec, std::uint32_t size_bytes,
              std::uint64_t seed);

  [[nodiscard]] std::optional<PacketArrival> next() override;

 private:
  double mean_burst_gap_;
  std::uint32_t burst_len_;
  double intra_gap_;
  std::uint32_t size_;
  Rng rng_;
  eventsim::SimTime burst_start_ = 0.0;
  std::uint32_t in_burst_ = 0;
  bool first_ = true;
};

/// Drains a source up to `horizon` seconds (or `max_count` arrivals).
[[nodiscard]] std::vector<PacketArrival> collect(
    ArrivalSource& source, eventsim::SimTime horizon,
    std::size_t max_count = static_cast<std::size_t>(-1));

}  // namespace ldlp::traffic
