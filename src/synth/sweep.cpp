#include "synth/sweep.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "traffic/size_models.hpp"

namespace ldlp::synth {

EngineResult average(const std::vector<EngineResult>& results) {
  EngineResult mean;
  if (results.empty()) return mean;
  const auto n = static_cast<double>(results.size());
  for (const EngineResult& r : results) {
    mean.offered += r.offered;
    mean.completed += r.completed;
    mean.dropped += r.dropped;
    mean.mean_latency_sec += r.mean_latency_sec / n;
    mean.i_miss_per_msg += r.i_miss_per_msg / n;
    mean.d_miss_per_msg += r.d_miss_per_msg / n;
    mean.mean_batch += r.mean_batch / n;
  }
  mean.offered /= results.size();
  mean.completed /= results.size();
  mean.dropped /= results.size();
  return mean;
}

std::vector<SweepPoint> sweep_poisson_rates(const EngineConfig& base,
                                            const std::vector<double>& rates,
                                            const SweepOptions& options) {
  LDLP_ASSERT(options.runs > 0 && options.run_seconds > 0.0);
  const Engine engine(base);
  std::vector<SweepPoint> points;
  points.reserve(rates.size());
  Rng master(options.seed);
  for (const double rate : rates) {
    std::vector<EngineResult> runs;
    runs.reserve(options.runs);
    for (std::uint32_t run = 0; run < options.runs; ++run) {
      const Layout layout = random_layout(base, master());
      traffic::PoissonSource source(rate, traffic::internet552_sizes(),
                                    master());
      runs.push_back(
          engine.run(layout, traffic::collect(source, options.run_seconds)));
    }
    points.push_back(SweepPoint{rate, average(runs)});
  }
  return points;
}

std::vector<SweepPoint> sweep_cpu_clock(
    const EngineConfig& base, const std::vector<traffic::PacketArrival>& trace,
    const std::vector<double>& clocks_hz, const SweepOptions& options) {
  LDLP_ASSERT(options.runs > 0 && !trace.empty());
  std::vector<SweepPoint> points;
  points.reserve(clocks_hz.size());
  Rng master(options.seed);
  for (const double clock : clocks_hz) {
    EngineConfig cfg = base;
    cfg.cpu.clock_hz = clock;
    const Engine engine(cfg);
    std::vector<EngineResult> runs;
    runs.reserve(options.runs);
    for (std::uint32_t run = 0; run < options.runs; ++run)
      runs.push_back(engine.run(random_layout(cfg, master()), trace));
    points.push_back(SweepPoint{clock, average(runs)});
  }
  return points;
}

}  // namespace ldlp::synth
