// Figure 7: latency as a function of CPU clock speed, driven by a
// self-similar Ethernet arrival trace (stand-in for the 1989 Bellcore
// traces; see DESIGN.md section 2). The same trace is replayed at every
// clock speed from 10 to 80 MHz; below the conventional stack's break-even
// clock the LDLP version batches to maintain throughput.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "core/blocking.hpp"
#include "synth/sweep.hpp"
#include "traffic/hurst.hpp"
#include "traffic/self_similar.hpp"
#include "traffic/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  synth::SweepOptions opt;
  opt.runs = static_cast<std::uint32_t>(flags.u64("runs", 3));
  opt.seed = flags.u64("seed", 0x5eed);
  const double duration = flags.f64("duration", 100.0);
  const double mean_rate = flags.f64("rate", 1200.0);
  benchutil::BenchReport report("fig7_cpu_clock", flags);
  report.config_u64("runs", opt.runs);
  report.config_u64("seed", opt.seed);
  report.config("duration", std::to_string(duration));
  report.config("rate", std::to_string(mean_rate));

  // --save-trace=/path and --load-trace=/path let a generated trace be
  // pinned across machines/runs, the way the paper replays one capture.
  std::vector<traffic::PacketArrival> trace;
  const auto load_path = flags.u64("dummy", 0);  // placeholder keeps Flags simple
  (void)load_path;
  if (const char* arg = [&]() -> const char* {
        for (int i = 1; i < argc; ++i) {
          if (std::strncmp(argv[i], "--load-trace=", 13) == 0)
            return argv[i] + 13;
        }
        return nullptr;
      }()) {
    trace = traffic::load_trace(arg);
    if (trace.empty()) {
      std::fprintf(stderr, "could not load trace from %s\n", arg);
      return 1;
    }
  } else {
    traffic::SelfSimilarConfig trace_cfg;
    trace_cfg.mean_rate_per_sec = mean_rate;
    trace_cfg.duration_sec = duration;
    auto sizes = traffic::ethernet1989_sizes();
    trace = traffic::generate_self_similar_trace(trace_cfg, *sizes, opt.seed);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--save-trace=", 13) == 0) {
      if (!traffic::save_trace(argv[i] + 13, trace))
        std::fprintf(stderr, "warning: could not save trace\n");
    }
  }
  const double hurst = traffic::estimate_hurst_variance_time(trace);

  std::vector<double> clocks;
  for (double mhz = 10; mhz <= 80; mhz += 10) clocks.push_back(mhz * 1e6);

  const sim::MemoryConfig mem;
  const auto pc =
      synth::sweep_cpu_clock(synth::conventional(), trace, clocks, opt);
  const auto pl = synth::sweep_cpu_clock(
      synth::ldlp(
          core::estimate_blocking({}, mem.icache, mem.dcache).batch_limit),
      trace, clocks, opt);

  benchutil::heading("Figure 7: latency vs CPU clock (Ethernet-like trace)");
  std::printf(
      "(trace: %zu arrivals over %.0f s, mean %.0f msgs/s, estimated "
      "Hurst %.2f;\n %u runs per point with random layouts)\n\n",
      trace.size(), trace.empty() ? 0.0 : trace.back().time,
      trace.empty() ? 0.0
                    : static_cast<double>(trace.size()) / trace.back().time,
      hurst, opt.runs);
  std::printf("%7s | %11s %7s | %11s %7s | %6s\n", "MHz", "conv mean",
              "drop%", "LDLP mean", "drop%", "batch");
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    const auto& c = pc[i].mean;
    const auto& l = pl[i].mean;
    std::printf("%7.0f | %11s %6.1f%% | %11s %6.1f%% | %6.2f\n",
                clocks[i] / 1e6,
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
    const std::string mhz = std::to_string(static_cast<int>(clocks[i] / 1e6));
    report.metric("conv.mean_latency_sec@" + mhz + "mhz", c.mean_latency_sec);
    report.metric("ldlp.mean_latency_sec@" + mhz + "mhz", l.mean_latency_sec);
    report.metric("ldlp.mean_batch@" + mhz + "mhz", l.mean_batch);
  }
  report.metric("trace.arrivals", static_cast<double>(trace.size()));
  report.metric("trace.hurst", hurst);
  std::printf(
      "\nShape check vs the paper: latency rises as the clock falls; below\n"
      "the conventional stack's break-even clock (paper: ~40 MHz for its\n"
      "trace) the LDLP version batches packets to maintain throughput,\n"
      "keeping latency bounded well below the conventional curve.\n");
  report.write();
  return 0;
}
