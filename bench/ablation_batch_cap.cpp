// Ablation A: why "all available messages, bounded by the data cache"?
//
// Sweeps the LDLP batch cap at a fixed heavy load. Cap 1 degenerates to
// conventional scheduling; caps beyond the D-cache bound stop helping the
// I-cache but keep hurting the D-cache (and add latency) — the paper's
// blocking estimate (~12 messages for this configuration) sits at the
// knee.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "synth/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  synth::SweepOptions opt;
  opt.runs = static_cast<std::uint32_t>(flags.u64("runs", 20));
  opt.seed = flags.u64("seed", 0x5eed);
  const double rate = flags.f64("rate", 8000.0);
  benchutil::BenchReport report("ablation_batch_cap", flags);
  report.config_u64("runs", opt.runs);
  report.config_u64("seed", opt.seed);
  report.config("rate", std::to_string(rate));

  benchutil::heading("Ablation: LDLP batch-size cap at 8000 msgs/s");
  std::printf("%6s | %11s | %10s %10s | %7s | %6s\n", "cap", "mean lat",
              "I-miss/msg", "D-miss/msg", "drop%", "batch");
  for (const std::uint32_t cap : {1u, 2u, 4u, 8u, 12u, 16u, 32u, 64u, 500u}) {
    const auto points =
        synth::sweep_poisson_rates(synth::ldlp(cap), {rate}, opt);
    const auto& m = points.front().mean;
    std::printf("%6u | %11s | %10.1f %10.1f | %6.1f%% | %6.2f\n", cap,
                benchutil::fmt_latency(m.mean_latency_sec).c_str(),
                m.i_miss_per_msg, m.d_miss_per_msg,
                m.offered != 0 ? 100.0 * static_cast<double>(m.dropped) /
                                     static_cast<double>(m.offered)
                               : 0.0,
                m.mean_batch);
    const std::string c = std::to_string(cap);
    report.metric("mean_latency_sec@cap" + c, m.mean_latency_sec);
    report.metric("i_miss_per_msg@cap" + c, m.i_miss_per_msg);
    report.metric("d_miss_per_msg@cap" + c, m.d_miss_per_msg);
  }
  report.write();
  std::printf(
      "\nThe D-cache blocking estimate for this machine is 12 messages\n"
      "(8 KB cache - 5 x 256 B layer data over 552 B messages); caps near\n"
      "it capture nearly all of the I-miss reduction without the D-miss\n"
      "growth of unbounded batching.\n");
  return 0;
}
