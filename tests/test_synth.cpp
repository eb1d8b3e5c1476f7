// Tests of the simulated-machine engine (synth::Engine) under every config
// the benches run:
//  * the paper's section 4 stack — determinism, conservation of messages,
//    the directional properties the paper claims (LDLP cuts I-misses under
//    load, raises throughput, batches bounded by the blocking estimate),
//    and degenerate configurations — plus the multi-run sweeps;
//  * flow-sharded LDLP — bit identity, conservation across lanes, and
//    coalescing refilling the batches sharding thins;
//  * the staged receive path — determinism, conservation and the two-sided
//    i-miss/d-miss separation between batching and pipelining;
//  * stages x cores x lanes in one config.
#include <gtest/gtest.h>

#include "core/blocking.hpp"
#include "core/grouping.hpp"
#include "synth/engine.hpp"
#include "synth/sweep.hpp"
#include "traffic/self_similar.hpp"
#include "traffic/size_models.hpp"

namespace ldlp::synth {
namespace {

enum class Paper { kConventional, kIlp, kLdlp };

std::uint32_t paper_batch_limit(const sim::MemoryConfig& mem = {}) {
  return core::estimate_blocking({}, mem.icache, mem.dcache).batch_limit;
}

EngineConfig config_for(Paper mode) {
  switch (mode) {
    case Paper::kConventional: return conventional();
    case Paper::kIlp: return ilp();
    case Paper::kLdlp: break;
  }
  return ldlp(paper_batch_limit());
}

EngineResult run_once(const EngineConfig& cfg, double rate, double seconds,
                      std::uint64_t seed) {
  traffic::PoissonSource source(rate, traffic::internet552_sizes(), seed);
  return Engine(cfg).run(random_layout(cfg, /*seed=*/1),
                         traffic::collect(source, seconds));
}

// ---- The paper's section 4 stack ---------------------------------------

TEST(PaperStack, DeterministicForSeeds) {
  const EngineConfig cfg = config_for(Paper::kLdlp);
  const EngineResult a = run_once(cfg, 5000, 0.5, 42);
  const EngineResult b = run_once(cfg, 5000, 0.5, 42);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.mean_latency_sec, b.mean_latency_sec);
  EXPECT_DOUBLE_EQ(a.i_miss_per_msg, b.i_miss_per_msg);
}

TEST(PaperStack, MessagesConserved) {
  for (const auto mode : {Paper::kConventional, Paper::kLdlp}) {
    const EngineResult r = run_once(config_for(mode), 6000, 0.5, 7);
    EXPECT_EQ(r.offered, r.completed + r.dropped)
        << "mode=" << static_cast<int>(mode);
    EXPECT_GT(r.completed, 0u);
  }
}

TEST(PaperStack, BatchLimitMatchesBlockingEstimate) {
  EXPECT_EQ(paper_batch_limit(), 12u);  // (8192 - 5*256)/552
  EXPECT_EQ(conventional().batch_limit, 1u);
}

TEST(PaperStack, ConventionalColdMissesMatchWorkingSet) {
  // At low load, every message fetches the whole 30 KB of layer code:
  // 5 layers x 6 KB / 32 B = 960 instruction misses per message.
  const EngineResult r =
      run_once(config_for(Paper::kConventional), 500, 1.0, 3);
  EXPECT_NEAR(r.i_miss_per_msg, 960.0, 25.0);
}

TEST(PaperStack, LdlpCutsInstructionMissesUnderLoad) {
  const EngineResult conv =
      run_once(config_for(Paper::kConventional), 8000, 0.5, 5);
  const EngineResult ldlp = run_once(config_for(Paper::kLdlp), 8000, 0.5, 5);
  EXPECT_LT(ldlp.i_miss_per_msg, conv.i_miss_per_msg / 3.0);
  EXPECT_GE(ldlp.d_miss_per_msg, conv.d_miss_per_msg * 0.8);
  EXPECT_GT(ldlp.mean_batch, 3.0);
}

TEST(PaperStack, LdlpThroughputExceedsConventional) {
  const EngineResult conv =
      run_once(config_for(Paper::kConventional), 9000, 1.0, 9);
  const EngineResult ldlp = run_once(config_for(Paper::kLdlp), 9000, 1.0, 9);
  EXPECT_GT(ldlp.completed, conv.completed * 2);
  EXPECT_LT(ldlp.mean_latency_sec, conv.mean_latency_sec);
}

TEST(PaperStack, IlpSavesDataMissesNotInstructionMisses) {
  // The paper's argument for why ILP does not rescue small-message
  // protocols: fusing data loops saves message-data traffic but leaves
  // the dominant instruction-fetch traffic untouched.
  const EngineResult conv =
      run_once(config_for(Paper::kConventional), 2000, 0.5, 19);
  const EngineResult ilp = run_once(config_for(Paper::kIlp), 2000, 0.5, 19);
  EXPECT_NEAR(ilp.i_miss_per_msg, conv.i_miss_per_msg,
              conv.i_miss_per_msg * 0.03);
  EXPECT_LT(ilp.d_miss_per_msg, conv.d_miss_per_msg);
  // And therefore ILP saturates at nearly the same load as conventional,
  // far below LDLP.
  const EngineResult ilp_hot =
      run_once(config_for(Paper::kIlp), 9000, 0.5, 19);
  const EngineResult ldlp_hot =
      run_once(config_for(Paper::kLdlp), 9000, 0.5, 19);
  EXPECT_GT(static_cast<double>(ldlp_hot.completed),
            static_cast<double>(ilp_hot.completed) * 1.7);
  EXPECT_GT(ilp_hot.dropped, ldlp_hot.dropped * 10);
}

TEST(PaperStack, LightLoadBatchesNearOne) {
  const EngineResult r = run_once(config_for(Paper::kLdlp), 200, 1.0, 1);
  EXPECT_LT(r.mean_batch, 1.1);
  EXPECT_EQ(r.dropped, 0u);
}

TEST(PaperStack, QueueCostChargesLdlpOnly) {
  EngineConfig with = config_for(Paper::kLdlp);
  with.queue_cost_cycles = 4000;  // exaggerated to be visible
  EngineConfig without = with;
  without.queue_cost_cycles = 0;
  const EngineResult slow = run_once(with, 500, 0.5, 11);
  const EngineResult fast = run_once(without, 500, 0.5, 11);
  EXPECT_GT(slow.mean_latency_sec, fast.mean_latency_sec);
  EXPECT_EQ(conventional().queue_cost_cycles, 0u);
}

TEST(PaperStack, BufferLimitCausesDrops) {
  EngineConfig cfg = config_for(Paper::kConventional);
  cfg.queue_cap = 10;  // ten receive buffers
  const EngineResult r = run_once(cfg, 10000, 0.5, 13);
  EXPECT_GT(r.dropped, 0u);
  EXPECT_LE(r.max_latency_sec, 1.0);  // short queue bounds sojourn
}

TEST(PaperStack, BigIcacheErasesAdvantage) {
  sim::MemoryConfig mem;
  mem.icache.size_bytes = 64 * 1024;
  mem.dcache.size_bytes = 64 * 1024;
  // 4-way: with direct mapping, randomly placed 6 KB regions still
  // conflict often enough to mask residency (an effect the cache-size
  // ablation bench shows); associativity isolates the capacity question.
  mem.icache.ways = 4;
  mem.dcache.ways = 4;
  EngineConfig conv = config_for(Paper::kConventional);
  conv.cpu.memory = mem;
  EngineConfig ldlp_cfg = ldlp(paper_batch_limit(mem));
  ldlp_cfg.cpu.memory = mem;
  const EngineResult c = run_once(conv, 5000, 0.5, 17);
  const EngineResult l = run_once(ldlp_cfg, 5000, 0.5, 17);
  // Whole stack resident: both schedules see few I-misses.
  EXPECT_LT(c.i_miss_per_msg, 100.0);
  EXPECT_LT(l.i_miss_per_msg, 100.0);
}

TEST(PaperStack, GroupingDegeneratesCorrectly) {
  // Group size = num_layers inside one batch behaves like the
  // conventional inner order: same I-miss count per message when the
  // batch is 1 (light load).
  EngineConfig grouped = config_for(Paper::kLdlp);
  grouped.groups = {kPaperLayers};
  grouped.queue_cost_cycles = 0;
  const EngineResult g = run_once(grouped, 300, 0.5, 31);
  const EngineResult c = run_once(config_for(Paper::kConventional), 300, 0.5,
                                  31);
  EXPECT_NEAR(g.i_miss_per_msg, c.i_miss_per_msg, c.i_miss_per_msg * 0.05);
}

TEST(PaperStack, PlannedGroupingRuns) {
  // The section 6 plan for a 16 KB i-cache pairs layers; the engine runs
  // whatever grouping the caller derives.
  const std::vector<std::uint32_t> plan = core::plan_groups(
      std::vector<std::uint32_t>(kPaperLayers, 6 * 1024), 16 * 1024);
  EXPECT_EQ(plan, (std::vector<std::uint32_t>{2, 2, 1}));
  EngineConfig cfg = config_for(Paper::kLdlp);
  cfg.cpu.memory.icache.size_bytes = 16 * 1024;
  cfg.groups = plan;
  const EngineResult r = run_once(cfg, 4000, 0.5, 29);
  EXPECT_EQ(r.offered, r.completed + r.dropped);
  EXPECT_EQ(r.stages[0].activations, r.stages[1].activations);
}

TEST(PaperStack, DuplexDoublesCodeWorkingSet) {
  // Request/response mode: the transmit code path is distinct, so cold
  // per-message I-misses double (plus the application's footprint).
  const EngineResult rx = run_once(conventional(), 300, 0.5, 37);
  const EngineResult both =
      run_once(conventional(/*duplex=*/true), 300, 0.5, 37);
  EXPECT_GT(both.i_miss_per_msg, rx.i_miss_per_msg * 1.9);
  EXPECT_GT(both.mean_latency_sec, rx.mean_latency_sec * 1.8);
}

TEST(PaperStack, DuplexLdlpBatchesBothDirections) {
  const EngineResult c = run_once(conventional(/*duplex=*/true), 4000, 0.5,
                                  41);
  const EngineResult l =
      run_once(ldlp(paper_batch_limit(), /*duplex=*/true), 4000, 0.5, 41);
  EXPECT_LT(l.i_miss_per_msg, c.i_miss_per_msg / 2.0);
  EXPECT_GT(l.completed, c.completed);
}

TEST(Sweep, AverageAggregatesFields) {
  EngineResult a;
  a.completed = 10;
  a.mean_latency_sec = 0.001;
  EngineResult b;
  b.completed = 20;
  b.mean_latency_sec = 0.003;
  const EngineResult mean = average({a, b});
  EXPECT_EQ(mean.completed, 15u);
  EXPECT_DOUBLE_EQ(mean.mean_latency_sec, 0.002);
}

TEST(Sweep, PoissonSweepMonotoneLoad) {
  SweepOptions opt;
  opt.runs = 3;
  opt.run_seconds = 0.3;
  const auto points = sweep_poisson_rates(config_for(Paper::kLdlp),
                                          {1000, 4000, 8000}, opt);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_LT(points[0].mean.mean_batch, points[2].mean.mean_batch);
  EXPECT_LE(points[2].mean.i_miss_per_msg, points[0].mean.i_miss_per_msg);
}

TEST(Sweep, ClockSweepSlowerIsWorse) {
  traffic::PoissonSource source(1500, traffic::internet552_sizes(), 23);
  const auto trace = traffic::collect(source, 5.0);
  SweepOptions opt;
  opt.runs = 2;
  const auto points = sweep_cpu_clock(config_for(Paper::kConventional),
                                      trace, {20e6, 80e6}, opt);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[0].mean.mean_latency_sec, points[1].mean.mean_latency_sec);
}

// ---- Flow-sharded LDLP -------------------------------------------------

EngineResult shard_run(std::uint32_t shards, std::uint64_t messages,
                       double rate, double coalesce_sec) {
  const sim::MemoryConfig mem;
  const EngineConfig cfg = sharded(
      shards, core::plan_shards({}, mem.icache, mem.dcache, shards)
                  .batch_limit,
      coalesce_sec);
  const LaneTrace trace = shard_trace(shards, 64, messages, rate, 1);
  return Engine(cfg).run(sharded_layout(cfg), trace.arrivals, trace.lanes);
}

TEST(Sharded, RunsAreBitIdentical) {
  const EngineResult a = shard_run(4, 2000, 8000.0, 0.0);
  const EngineResult b = shard_run(4, 2000, 8000.0, 0.0);
  EXPECT_EQ(a.mean_latency_sec, b.mean_latency_sec);
  EXPECT_EQ(a.p99_latency_sec, b.p99_latency_sec);
  EXPECT_EQ(a.i_miss_per_msg, b.i_miss_per_msg);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t s = 0; s < a.cores.size(); ++s) {
    EXPECT_EQ(a.cores[s].messages, b.cores[s].messages);
    EXPECT_EQ(a.cores[s].i_misses, b.cores[s].i_misses);
  }
}

TEST(Sharded, ConservesMessagesAcrossShards) {
  const EngineResult r = shard_run(8, 4000, 8000.0, 0.0);
  std::uint64_t total = 0;
  for (const CoreStats& s : r.cores) total += s.messages;
  EXPECT_EQ(total, 4000u);
  EXPECT_GE(max_lane_share(r), 1.0);
  EXPECT_LT(max_lane_share(r), 2.0) << "Toeplitz skew out of bounds";
}

TEST(Sharded, CoalescingRefillsBatches) {
  const EngineResult p = shard_run(4, 4000, 16000.0, 0.0);
  const EngineResult c = shard_run(4, 4000, 16000.0, 750e-6);
  EXPECT_GT(c.mean_batch, p.mean_batch);
  EXPECT_LT(c.i_miss_per_msg, p.i_miss_per_msg);
}

// ---- The staged receive path -------------------------------------------

std::vector<traffic::PacketArrival> short_trace(double rate) {
  traffic::SelfSimilarConfig tc;
  tc.mean_rate_per_sec = rate;
  tc.duration_sec = 0.25;
  const auto sizes = traffic::internet552_sizes();
  return traffic::generate_self_similar_trace(tc, *sizes, 0xf19);
}

enum class Staged { kLdlp, kPipelined, kHybrid };

EngineResult staged_run(Staged mode, double rate) {
  const EngineConfig cfg = mode == Staged::kLdlp ? staged(1, 8)
                           : mode == Staged::kPipelined ? staged(4, 1)
                                                        : staged(4, 8);
  return Engine(cfg).run(staged_layout(cfg), short_trace(rate));
}

TEST(StagedPath, DeterministicAcrossRuns) {
  const auto a = staged_run(Staged::kHybrid, 15000.0);
  const auto b = staged_run(Staged::kHybrid, 15000.0);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.i_miss_per_msg, b.i_miss_per_msg);
  EXPECT_DOUBLE_EQ(a.d_miss_per_msg, b.d_miss_per_msg);
  EXPECT_DOUBLE_EQ(a.p99_latency_sec, b.p99_latency_sec);
}

TEST(StagedPath, ConservesMessages) {
  for (const Staged mode : {Staged::kLdlp, Staged::kPipelined,
                            Staged::kHybrid}) {
    const auto r = staged_run(mode, 20000.0);
    EXPECT_EQ(r.offered, r.completed + r.dropped)
        << static_cast<int>(mode);
    EXPECT_GT(r.completed, 0u) << static_cast<int>(mode);
  }
}

TEST(StagedPath, TwoSidedCacheSeparation) {
  const auto ldlp_run = staged_run(Staged::kLdlp, 15000.0);
  const auto piped = staged_run(Staged::kPipelined, 15000.0);
  // LDLP refetches the four stage bodies every batch; the pipelined
  // stages keep their own code resident.
  EXPECT_GT(ldlp_run.i_miss_per_msg, 10.0 * (piped.i_miss_per_msg + 1e-9));
  // The pipeline pulls every message into four private d-caches.
  EXPECT_GT(piped.d_miss_per_msg, 1.5 * ldlp_run.d_miss_per_msg);
  // Batching actually happened under LDLP.
  EXPECT_GT(ldlp_run.mean_batch, 1.5);
  EXPECT_DOUBLE_EQ(piped.mean_batch, 1.0);
}

TEST(StagedPath, HybridAmortisesActivationsPastSaturation) {
  // Past the pipeline's bottleneck stage, per-message activations are
  // what breaks the pipelined schedule; the hybrid batches them away.
  const auto piped = staged_run(Staged::kPipelined, 48000.0);
  const auto hybrid = staged_run(Staged::kHybrid, 48000.0);
  EXPECT_GT(hybrid.mean_batch, 1.5);
  EXPECT_LT(hybrid.p99_latency_sec, piped.p99_latency_sec);
  EXPECT_LE(hybrid.dropped, piped.dropped);
}

// ---- Stages x cores x lanes --------------------------------------------

TEST(Placement, TwoLanesOfTwoCoresConserveAndRepeat) {
  // Parse+steer on one core and proto+socket on another, in each of two
  // flow-hashed lanes: four private cache contexts.
  EngineConfig cfg = staged(2, 8);
  cfg.lanes = 2;
  const LaneTrace trace = shard_trace(2, 64, 6000, 30000.0, 7);
  const Layout layout = staged_layout(cfg);
  const EngineResult a = Engine(cfg).run(layout, trace.arrivals, trace.lanes);
  const EngineResult b = Engine(cfg).run(layout, trace.arrivals, trace.lanes);

  EXPECT_EQ(a.offered, 6000u);
  EXPECT_EQ(a.offered, a.completed + a.dropped);

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_latency_sec, b.mean_latency_sec);
  EXPECT_EQ(a.p99_latency_sec, b.p99_latency_sec);
  EXPECT_EQ(a.d_miss_per_msg, b.d_miss_per_msg);

  // Every core runs and misses in its own caches, and the per-stage
  // scopes account for every core's misses.
  ASSERT_EQ(a.cores.size(), 4u);
  std::uint64_t core_i = 0;
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    EXPECT_GT(a.cores[c].messages, 0u) << "core " << c;
    EXPECT_GT(a.cores[c].i_misses, 0u) << "core " << c;
    EXPECT_EQ(a.cores[c].i_misses, b.cores[c].i_misses) << "core " << c;
    core_i += a.cores[c].i_misses;
  }
  std::uint64_t scope_i = 0;
  for (const StageStats& s : a.stages) scope_i += s.i_misses;
  EXPECT_EQ(core_i, scope_i);
}

}  // namespace
}  // namespace ldlp::synth
