// rxbench: native receive-path benchmark.
//
//   rxbench --workload <udp64|tcp64-1k|tcp1460-bulk> --seed <n>
//           --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints one JSON line: with --trace 0 the end-to-end metrics, with
// --trace 1 the per-layer ones. Exits 1, printing no result, when any
// delivered content or phase ledger does not match what was offered.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness/runner.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "rxbench: %s\nusage: rxbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\nworkloads:",
               why);
  for (const auto& w : rxbench::workloads())
    std::fprintf(stderr, " %s", std::string(w.name).c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rxbench::RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      value = std::string(arg.substr(eq + 1));
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage("missing value");
    }
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      cfg.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (arg == "--spans") {
      cfg.spans_path = value;
    } else {
      return usage(("unknown flag " + std::string(arg)).c_str());
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0'))
      return usage(("bad value for " + std::string(arg)).c_str());
  }
  cfg.spec = rxbench::find_workload(workload);
  if (cfg.spec == nullptr) return usage("unknown workload");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");

  const rxbench::RunResult result = rxbench::run_benchmark(cfg);
  if (!result.correct) {
    std::fprintf(stderr, "rxbench: FAILED: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("%s\n", rxbench::to_json(result).c_str());
  return 0;
}
