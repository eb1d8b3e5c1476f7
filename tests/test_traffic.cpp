// Unit tests for traffic generation: Poisson/deterministic/burst sources,
// size models, self-similar generator (mean rate + burstiness), Hurst
// estimation, trace save/load, Zipf flow popularity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/hurst.hpp"
#include "traffic/self_similar.hpp"
#include "traffic/size_models.hpp"
#include "traffic/trace_io.hpp"
#include "traffic/zipf.hpp"

namespace ldlp::traffic {
namespace {

TEST(PoissonSource, MeanRateConverges) {
  PoissonSource source(1000.0, internet552_sizes(), 1);
  const auto trace = collect(source, 50.0);
  EXPECT_NEAR(static_cast<double>(trace.size()) / 50.0, 1000.0, 30.0);
}

TEST(PoissonSource, ExponentialGapCv) {
  // Coefficient of variation of exponential gaps is 1.
  PoissonSource source(500.0, internet552_sizes(), 2);
  RunningStats gaps;
  double prev = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const auto arrival = source.next();
    gaps.add(arrival->time - prev);
    prev = arrival->time;
  }
  EXPECT_NEAR(gaps.stddev() / gaps.mean(), 1.0, 0.05);
}

TEST(PoissonSource, MonotoneTimes) {
  PoissonSource source(2000.0, internet552_sizes(), 3);
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const auto arrival = source.next();
    EXPECT_GE(arrival->time, prev);
    prev = arrival->time;
  }
}

TEST(DeterministicSource, ExactSpacing) {
  DeterministicSource source(100.0, 64);
  EXPECT_DOUBLE_EQ(source.next()->time, 0.01);
  EXPECT_DOUBLE_EQ(source.next()->time, 0.02);
  EXPECT_EQ(source.next()->size_bytes, 64u);
}

TEST(BurstSource, MonotoneAndBursty) {
  BurstSource source(50.0, 8, 1e-5, 552, 4);
  double prev = -1.0;
  int tight_gaps = 0;
  for (int i = 0; i < 800; ++i) {
    const auto arrival = source.next();
    EXPECT_GE(arrival->time, prev);
    if (arrival->time - prev < 2e-5 && prev >= 0) ++tight_gaps;
    prev = arrival->time;
  }
  EXPECT_GT(tight_gaps, 600);  // 7 of every 8 gaps are intra-burst
}

TEST(SizeModels, FixedAlwaysSame) {
  FixedSize model(552);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(model.sample(rng), 552u);
  EXPECT_DOUBLE_EQ(model.mean(), 552.0);
}

TEST(SizeModels, MixtureMeanAndSupport) {
  MixtureSize model({{100, 1.0}, {300, 1.0}});
  Rng rng(2);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    const auto size = model.sample(rng);
    EXPECT_TRUE(size == 100 || size == 300);
    stats.add(size);
  }
  EXPECT_DOUBLE_EQ(model.mean(), 200.0);
  EXPECT_NEAR(stats.mean(), 200.0, 3.0);
}

TEST(SizeModels, Ethernet1989IsBimodal) {
  auto model = ethernet1989_sizes();
  Rng rng(3);
  int small = 0;
  int large = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto size = model->sample(rng);
    if (size <= 64) ++small;
    if (size >= 1072) ++large;
  }
  EXPECT_GT(small, 3000);
  EXPECT_GT(large, 2000);
}

TEST(SelfSimilar, MeanRateOnTarget) {
  SelfSimilarConfig cfg;
  cfg.mean_rate_per_sec = 800.0;
  cfg.duration_sec = 200.0;
  auto sizes = internet552_sizes();
  const auto trace = generate_self_similar_trace(cfg, *sizes, 77);
  const double rate = static_cast<double>(trace.size()) / cfg.duration_sec;
  EXPECT_NEAR(rate, 800.0, 200.0);  // heavy-tailed: wide tolerance
}

TEST(SelfSimilar, SortedAndSized) {
  SelfSimilarConfig cfg;
  cfg.duration_sec = 20.0;
  auto sizes = internet552_sizes();
  const auto trace = generate_self_similar_trace(cfg, *sizes, 5);
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].time, trace[i - 1].time);
  for (const auto& arrival : trace) EXPECT_EQ(arrival.size_bytes, 552u);
}

TEST(SelfSimilar, DeterministicInSeed) {
  SelfSimilarConfig cfg;
  cfg.duration_sec = 10.0;
  auto sizes = internet552_sizes();
  const auto a = generate_self_similar_trace(cfg, *sizes, 9);
  const auto b = generate_self_similar_trace(cfg, *sizes, 9);
  EXPECT_EQ(a, b);
}

TEST(SelfSimilar, BurstierThanPoisson) {
  // The whole point of the generator: long-range dependence. The Hurst
  // estimate of the ON/OFF aggregate must clearly exceed Poisson's 0.5.
  SelfSimilarConfig cfg;
  cfg.mean_rate_per_sec = 1000.0;
  cfg.duration_sec = 300.0;
  auto sizes = internet552_sizes();
  const auto ss = generate_self_similar_trace(cfg, *sizes, 21);
  const double h_ss = estimate_hurst_variance_time(ss);

  PoissonSource poisson(1000.0, internet552_sizes(), 22);
  const auto pp = collect(poisson, 300.0);
  const double h_pp = estimate_hurst_variance_time(pp);

  EXPECT_GT(h_ss, 0.7);
  EXPECT_LT(h_pp, 0.65);
  EXPECT_GT(h_ss, h_pp + 0.1);
}

TEST(TraceIo, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ldlp_trace_test.txt";
  std::vector<PacketArrival> trace{{0.001, 64}, {0.5, 1518}, {100.25, 552}};
  ASSERT_TRUE(save_trace(path, trace));
  const auto loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_NEAR(loaded[i].time, trace[i].time, 1e-9);
    EXPECT_EQ(loaded[i].size_bytes, trace[i].size_bytes);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileReturnsEmpty) {
  EXPECT_TRUE(load_trace("/nonexistent/path/trace.txt").empty());
}

TEST(SelfSimilar, InterarrivalMeanMatchesRate) {
  // The generator must honour its configured aggregate rate across the
  // range the tail benches use: the mean interarrival gap has to track
  // 1/rate even though individual gaps are wildly bursty. Heavy-tailed
  // ON/OFF superposition converges slowly, hence the wide-but-bounded
  // tolerance.
  auto sizes = internet552_sizes();
  for (const double rate : {200.0, 800.0, 3200.0}) {
    SelfSimilarConfig cfg;
    cfg.mean_rate_per_sec = rate;
    cfg.duration_sec = 200.0;
    const auto trace = generate_self_similar_trace(cfg, *sizes, 31);
    ASSERT_GT(trace.size(), 100u) << "rate " << rate;
    const double span = trace.back().time - trace.front().time;
    const double mean_gap = span / static_cast<double>(trace.size() - 1);
    EXPECT_NEAR(mean_gap, 1.0 / rate, 0.35 / rate) << "rate " << rate;
  }
}

TEST(Hurst, EstimatorSanityOnKnownStreams) {
  // The variance-time estimator itself has to be trustworthy before its
  // verdict on the self-similar generator means anything. Short-range
  // streams must read near (or below) 0.5: deterministic arrivals have
  // zero count variance at every aggregation level, Poisson arrivals are
  // the canonical H = 0.5 process. Degenerate input returns the 0.5
  // prior instead of garbage.
  DeterministicSource det(1000.0, 552);
  const auto even = collect(det, 300.0);
  EXPECT_LT(estimate_hurst_variance_time(even), 0.6);

  PoissonSource poisson(1000.0, internet552_sizes(), 7);
  const auto pp = collect(poisson, 300.0);
  const double h_pp = estimate_hurst_variance_time(pp);
  EXPECT_GT(h_pp, 0.35);
  EXPECT_LT(h_pp, 0.65);

  EXPECT_DOUBLE_EQ(estimate_hurst_variance_time({}), 0.5);

  // And the self-similar generator's estimate must be stable in seed:
  // three independent draws all clearly long-range dependent.
  SelfSimilarConfig cfg;
  cfg.mean_rate_per_sec = 1000.0;
  cfg.duration_sec = 300.0;
  auto sizes = internet552_sizes();
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const auto ss = generate_self_similar_trace(cfg, *sizes, seed);
    EXPECT_GT(estimate_hurst_variance_time(ss), 0.65) << "seed " << seed;
  }
}

TEST(Collect, RespectsHorizonAndCount) {
  DeterministicSource source(100.0, 64);
  const auto by_time = collect(source, 0.055);
  EXPECT_EQ(by_time.size(), 5u);
  DeterministicSource source2(100.0, 64);
  const auto by_count = collect(source2, 1e9, 7);
  EXPECT_EQ(by_count.size(), 7u);
}

TEST(ZipfFlows, RankFrequenciesFollowTheSkew) {
  // s = 1 over 64 flows: P(rank r) = 1 / ((r + 1) * H_64), H_64 ~ 4.7439.
  constexpr std::uint32_t kFlows = 64;
  constexpr int kDraws = 200000;
  ZipfFlows zipf(kFlows, 1.0, 7);
  std::vector<int> count(kFlows, 0);
  for (int i = 0; i < kDraws; ++i) {
    const std::uint32_t r = zipf.next();
    ASSERT_LT(r, kFlows);
    ++count[r];
  }
  double harmonic = 0.0;
  for (std::uint32_t r = 1; r <= kFlows; ++r) harmonic += 1.0 / r;
  for (const std::uint32_t r : {0u, 1u, 9u}) {
    const double expect = kDraws / ((r + 1) * harmonic);
    EXPECT_NEAR(count[r], expect, 5.0 * std::sqrt(expect)) << "rank " << r;
  }
  EXPECT_GT(count[0], count[1]);
  EXPECT_GT(count[1], count[63]);
}

TEST(ZipfFlows, UniformAtZeroSkewAndDeterministic) {
  ZipfFlows uniform(4, 0.0, 3);
  std::vector<int> count(4, 0);
  for (int i = 0; i < 40000; ++i) ++count[uniform.next()];
  for (const int c : count) EXPECT_NEAR(c, 10000, 500);

  ZipfFlows a(1024, 1.0, 11);
  ZipfFlows b(1024, 1.0, 11);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
  ZipfFlows one(1, 1.0, 5);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(one.next(), 0u);
}

}  // namespace
}  // namespace ldlp::traffic
