// The paper's synthetic machine: a single-issue processor at a configurable
// clock rate whose only stalls are primary-cache misses (sim::MemorySystem).
// synth::Engine charges a stage's instruction execution as cycles directly
// and its instruction fetch and data traffic through the caches.
#pragma once

#include "sim/memory_system.hpp"

namespace ldlp::sim {

struct CpuConfig {
  double clock_hz = 100e6;  ///< Paper section 4 uses 100 MHz.
  MemoryConfig memory{};
};

}  // namespace ldlp::sim
