// ProgressWatchdog: flags hosts that hold work but do none.
//
// The ConvergenceOracle judges end states; the watchdog catches a
// different pathology — a host whose queues are non-empty (graph
// backlog, device ring, TCP send buffers, retransmit queues) while its
// progress counters stand perfectly still for N consecutive scheduler
// passes. A healthy stalled connection still *does* things (retransmits,
// probes, drops); total silence with work pending means a timer was
// never armed or an event was lost — the class of bug the PR-4 persist
// fix repaired, now guarded permanently.
//
// Like the oracle, the watchdog only arms once the host's faults have
// cleared: during a partition or device stall, frozen progress is the
// fault's job, not a bug.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "stack/host.hpp"

namespace ldlp::recover {

struct WatchdogConfig {
  /// Consecutive zero-progress passes (with work pending) before a host
  /// is flagged. Must exceed the longest sanctioned silent gap — the
  /// capped retransmit backoff (rto_max 8 s = 160 passes at a 50 ms
  /// tick) — with margin. scenario::Harness ticks every 5 ms and sets its
  /// own budget.
  std::uint64_t stall_passes = 400;
};

struct WatchdogStats {
  std::uint64_t passes = 0;
  std::uint64_t stalls_flagged = 0;
};

class ProgressWatchdog {
 public:
  explicit ProgressWatchdog(WatchdogConfig cfg = {}) : cfg_(cfg) {}

  /// Track a host. `injector` may be nullptr (treated as always cleared).
  void add_host(stack::Host& host, fault::FaultInjector* injector = nullptr);

  /// Extra fleet-wide clearance ANDed with each host's injector: while
  /// any clearance is false (e.g. the fabric still has an active
  /// topology fault), frozen progress is the fault's doing, not a stall.
  void add_clearance(std::function<bool()> cleared) {
    clearances_.push_back(std::move(cleared));
  }

  /// Call once per scheduler pass.
  void on_pass();

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] const WatchdogStats& stats() const noexcept { return stats_; }

  /// Mirror totals into an obs registry as <prefix>.* counters.
  void publish(obs::Registry& registry,
               std::string_view prefix = "recover.watchdog") const;

  /// Work currently held anywhere in the host (exposed for tests).
  [[nodiscard]] static std::uint64_t occupancy(stack::Host& host);
  /// Monotone "things happened" sum — any processed, dropped, sent or
  /// received unit moves it (exposed for tests).
  [[nodiscard]] static std::uint64_t progress_fingerprint(stack::Host& host);

 private:
  struct Tracked {
    stack::Host* host;
    fault::FaultInjector* injector;
    std::uint64_t fingerprint = 0;
    std::uint64_t stalled = 0;
    bool flagged = false;
  };

  WatchdogConfig cfg_;
  std::vector<Tracked> hosts_;
  std::vector<std::function<bool()>> clearances_;
  std::vector<std::string> violations_;
  WatchdogStats stats_;
};

}  // namespace ldlp::recover
