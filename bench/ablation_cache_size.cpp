// Ablation B: "If the future brings processors with large primary caches,
// will LDLP become irrelevant?" (paper section 6).
//
// Sweeps the I-cache (and proportionally D-cache) size at a fixed load.
// Once the whole five-layer working set (30 KB of code) fits, LDLP's
// advantage vanishes — exactly the paper's prediction that 64 KB caches
// erase the gain for this stack, while larger stacks (encryption layers,
// richer signalling) would push the threshold up again.
#include <cstdio>

#include "bench_util.hpp"
#include "core/blocking.hpp"
#include "synth/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  synth::SweepOptions opt;
  opt.runs = static_cast<std::uint32_t>(flags.u64("runs", 20));
  opt.seed = flags.u64("seed", 0x5eed);
  const double rate = flags.f64("rate", 3000.0);
  benchutil::BenchReport report("ablation_cache_size", flags);
  report.config_u64("runs", opt.runs);
  report.config_u64("seed", opt.seed);
  report.config("rate", std::to_string(rate));

  benchutil::heading("Ablation: primary cache size at 3000 msgs/s");
  std::printf("%7s | %22s | %22s | %8s\n", "KB", "conv lat / I-miss",
              "LDLP lat / I-miss", "speedup");
  for (const std::uint32_t kb : {4u, 8u, 16u, 32u, 64u}) {
    sim::MemoryConfig mem;
    mem.icache.size_bytes = kb * 1024;
    mem.dcache.size_bytes = kb * 1024;
    synth::EngineConfig conv = synth::conventional();
    conv.cpu.memory = mem;
    synth::EngineConfig ldlp = synth::ldlp(
        core::estimate_blocking({}, mem.icache, mem.dcache).batch_limit);
    ldlp.cpu.memory = mem;

    const auto pc = synth::sweep_poisson_rates(conv, {rate}, opt);
    const auto pl = synth::sweep_poisson_rates(ldlp, {rate}, opt);
    const auto& c = pc.front().mean;
    const auto& l = pl.front().mean;
    std::printf("%7u | %11s / %7.1f | %11s / %7.1f | %7.2fx\n", kb,
                benchutil::fmt_latency(c.mean_latency_sec).c_str(),
                c.i_miss_per_msg,
                benchutil::fmt_latency(l.mean_latency_sec).c_str(),
                l.i_miss_per_msg,
                l.mean_latency_sec > 0.0
                    ? c.mean_latency_sec / l.mean_latency_sec
                    : 0.0);
    const std::string k = std::to_string(kb);
    report.metric("conv.mean_latency_sec@" + k + "kb", c.mean_latency_sec);
    report.metric("conv.i_miss_per_msg@" + k + "kb", c.i_miss_per_msg);
    report.metric("ldlp.mean_latency_sec@" + k + "kb", l.mean_latency_sec);
    report.metric("ldlp.i_miss_per_msg@" + k + "kb", l.i_miss_per_msg);
  }
  report.write();
  std::printf(
      "\nWith 32-64 KB caches the 30 KB five-layer stack fits and the two\n"
      "schedules converge (paper section 6); small caches show the full\n"
      "LDLP advantage.\n");
  return 0;
}
