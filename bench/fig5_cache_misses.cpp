// Figure 5: instruction and data cache misses per message vs arrival rate,
// Poisson source of 552-byte messages, conventional vs LDLP scheduling.
//
// Machine: 100 MHz CPU, 8 KB direct-mapped split I/D caches, 32-byte
// lines, 20-cycle miss penalty — the paper's synthetic machine. Results
// are averaged over randomised memory layouts (paper: 100 runs x 1 s;
// default here 30, selectable via --runs=N).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/blocking.hpp"
#include "synth/sweep.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  synth::SweepOptions opt;
  opt.runs = static_cast<std::uint32_t>(flags.u64("runs", 30));
  opt.run_seconds = flags.f64("seconds", 1.0);
  opt.seed = flags.u64("seed", 0x5eed);
  benchutil::BenchReport report("fig5_cache_misses", flags);
  report.config_u64("runs", opt.runs);
  report.config_u64("seed", opt.seed);
  report.config("seconds", std::to_string(opt.run_seconds));

  std::vector<double> rates;
  for (double r = 1000; r <= 10000; r += 1000) rates.push_back(r);

  const sim::MemoryConfig mem;
  const std::uint32_t batch_limit =
      core::estimate_blocking({}, mem.icache, mem.dcache).batch_limit;
  const auto pc = synth::sweep_poisson_rates(synth::conventional(), rates, opt);
  const auto pi = synth::sweep_poisson_rates(synth::ilp(), rates, opt);
  const auto pl =
      synth::sweep_poisson_rates(synth::ldlp(batch_limit), rates, opt);

  benchutil::heading(
      "Figure 5: cache misses per message vs arrival rate (Poisson, 552 B)");
  std::printf("(%u runs x %.1f s per point, random layout per run; "
              "LDLP batch limit = %u messages;\n ILP added beyond the "
              "paper's two curves — it fuses data loops but cannot touch "
              "code locality)\n\n",
              opt.runs, opt.run_seconds, batch_limit);
  std::printf("%9s | %9s %9s | %9s %9s | %9s %9s | %6s\n", "rate",
              "conv I", "conv D", "ILP I", "ILP D", "LDLP I", "LDLP D",
              "batch");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    std::printf("%9.0f | %9.1f %9.1f | %9.1f %9.1f | %9.1f %9.1f | %6.2f\n",
                rates[i], pc[i].mean.i_miss_per_msg,
                pc[i].mean.d_miss_per_msg, pi[i].mean.i_miss_per_msg,
                pi[i].mean.d_miss_per_msg, pl[i].mean.i_miss_per_msg,
                pl[i].mean.d_miss_per_msg, pl[i].mean.mean_batch);
    const std::string rate = std::to_string(static_cast<int>(rates[i]));
    report.metric("conv.i_miss@" + rate, pc[i].mean.i_miss_per_msg);
    report.metric("conv.d_miss@" + rate, pc[i].mean.d_miss_per_msg);
    report.metric("ilp.i_miss@" + rate, pi[i].mean.i_miss_per_msg);
    report.metric("ilp.d_miss@" + rate, pi[i].mean.d_miss_per_msg);
    report.metric("ldlp.i_miss@" + rate, pl[i].mean.i_miss_per_msg);
    report.metric("ldlp.d_miss@" + rate, pl[i].mean.d_miss_per_msg);
    report.metric("ldlp.mean_batch@" + rate, pl[i].mean.mean_batch);
  }
  report.metric("ldlp.batch_limit", static_cast<double>(batch_limit));

  std::printf(
      "\nShape checks vs the paper:\n"
      "  - conventional I-misses stay ~flat near the full per-message\n"
      "    working set (5 layers x 6 KB / 32 B = 960 lines);\n"
      "  - LDLP I-misses fall roughly as 1/batch as load rises;\n"
      "  - LDLP D-misses rise with batching but stay far below the I-miss\n"
      "    savings;\n"
      "  - the LDLP curve flattens when batching hits the max batch size\n"
      "    (paper: beyond ~8500 msgs/sec).\n");
  report.write();
  return 0;
}
