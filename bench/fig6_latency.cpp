// Figure 6: latency vs arrival rate, Poisson source of 552-byte messages,
// conventional vs LDLP. Buffering is limited to 500 packets, so latencies
// beyond ~100 ms come with drops, as in the paper.
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
  benchutil::BenchReport report("fig6_latency", flags);
  report.config_u64("runs", opt.runs);
  report.config_u64("seed", opt.seed);
  report.config("seconds", std::to_string(opt.run_seconds));

  std::vector<double> rates;
  for (double r = 500; r <= 10000; r += 500) rates.push_back(r);

  const sim::MemoryConfig mem;
  const auto pc = synth::sweep_poisson_rates(synth::conventional(), rates, opt);
  const auto pl = synth::sweep_poisson_rates(
      synth::ldlp(
          core::estimate_blocking({}, mem.icache, mem.dcache).batch_limit),
      rates, opt);

  benchutil::heading(
      "Figure 6: latency vs arrival rate (Poisson, 552 B messages)");
  std::printf("(%u runs x %.1f s per point; 500-packet buffer)\n\n", opt.runs,
              opt.run_seconds);
  std::printf("%9s | %11s %7s | %11s %7s | %6s\n", "rate", "conv mean",
              "drop%", "LDLP mean", "drop%", "batch");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& c = pc[i].mean;
    const auto& l = pl[i].mean;
    std::printf("%9.0f | %11s %6.1f%% | %11s %6.1f%% | %6.2f\n", rates[i],
                benchutil::fmt_latency(c.mean_latency_sec).c_str(),
                c.offered != 0
                    ? 100.0 * static_cast<double>(c.dropped) /
                          static_cast<double>(c.offered)
                    : 0.0,
                benchutil::fmt_latency(l.mean_latency_sec).c_str(),
                l.offered != 0
                    ? 100.0 * static_cast<double>(l.dropped) /
                          static_cast<double>(l.offered)
                    : 0.0,
                l.mean_batch);
    const std::string rate = std::to_string(static_cast<int>(rates[i]));
    const double c_drop = c.offered != 0 ? static_cast<double>(c.dropped) /
                                               static_cast<double>(c.offered)
                                         : 0.0;
    const double l_drop = l.offered != 0 ? static_cast<double>(l.dropped) /
                                               static_cast<double>(l.offered)
                                         : 0.0;
    report.metric("conv.mean_latency_sec@" + rate, c.mean_latency_sec);
    report.metric("conv.drop_frac@" + rate, c_drop);
    report.metric("ldlp.mean_latency_sec@" + rate, l.mean_latency_sec);
    report.metric("ldlp.drop_frac@" + rate, l_drop);
    report.metric("ldlp.mean_batch@" + rate, l.mean_batch);
  }

  // Find the saturation knees (first rate with >1% drops).
  auto knee = [](const std::vector<synth::SweepPoint>& points) {
    for (const auto& point : points) {
      if (point.mean.offered != 0 &&
          static_cast<double>(point.mean.dropped) /
                  static_cast<double>(point.mean.offered) >
              0.01)
        return point.x;
    }
    return 0.0;
  };
  const double kc = knee(pc);
  const double kl = knee(pl);
  std::printf(
      "\nSaturation: conventional drops beyond %.0f msgs/s; LDLP beyond "
      "%s msgs/s\n(paper: conventional saturates near 3500-4000, LDLP "
      "sustains ~2.5x more).\n",
      kc, kl != 0.0 ? std::to_string(static_cast<int>(kl)).c_str() : ">10000");
  report.metric("conv.knee_rate", kc);
  report.metric("ldlp.knee_rate", kl);
  report.write();
  return 0;
}
