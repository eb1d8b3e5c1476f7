// ldlp::recover — liveness oracles for post-fault convergence.
//
// ldlp::check asks "did anything wrong ever happen?" (safety); this
// subsystem asks "did the stack come back?" (liveness). The paper's
// batching argument assumes forward progress — a wedged connection
// batches nothing — so after the last fault episode ends, every TCP
// connection must either finish its work (deliver the remaining stream
// bytes and close) or reset cleanly, within a bounded number of
// scheduler passes. The ConvergenceOracle enforces that bound.
//
// Protocol: the harness calls add_host() for each host (with its fault
// injector, so the oracle knows when adversity has truly drained), calls
// arm() at the moment the application will offer no further work, and
// calls on_pass() once per scheduler tick. The liveness budget starts
// counting only when both conditions hold — armed and faults cleared —
// because convergence is only owed once the world stops changing.
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

struct ConvergenceConfig {
  /// Scheduler passes allowed between "armed + faults cleared" and every
  /// connection converged. The default clears the worst sanctioned path:
  /// a full retransmit backoff ladder into a reset (~950 passes at a
  /// 50 ms tick) plus keepalive teardown of a half-open peer, with
  /// margin. scenario::Harness ticks every 5 ms and sets its own budget.
  std::uint64_t budget_passes = 2000;
};

struct ConvergenceStats {
  std::uint64_t passes = 0;             ///< on_pass() calls observed.
  std::uint64_t passes_to_converge = 0; ///< Budget passes used (0 = not yet).
  std::uint64_t violations = 0;
};

class ConvergenceOracle {
 public:
  explicit ConvergenceOracle(ConvergenceConfig cfg = {}) : cfg_(cfg) {}

  /// Track a host. `injector` may be nullptr (treated as always cleared).
  void add_host(stack::Host& host, fault::FaultInjector* injector = nullptr);

  /// Extra "adversity has drained" predicate ANDed into ready() alongside
  /// the per-host injectors. Fleet runs hang the fabric's
  /// faults_cleared() here — the convergence budget must not start while
  /// a topology-scoped partition is still cutting links or frames are
  /// still on a wire.
  void add_clearance(std::function<bool()> cleared) {
    clearances_.push_back(std::move(cleared));
  }

  /// The application will offer no more work (sends, connects, closes all
  /// issued); from here on, quiescence is owed.
  void arm() noexcept { armed_ = true; }

  /// Call once per scheduler pass (after the hosts' advance+pump tick).
  void on_pass();

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  /// Armed and every tracked injector reports faults cleared.
  [[nodiscard]] bool ready() const;
  /// Every connection on every tracked host is converged right now.
  [[nodiscard]] bool converged() const;
  /// ready() && converged() — the harness's drain loop may stop here.
  [[nodiscard]] bool settled() const { return ready() && converged(); }

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] const ConvergenceStats& stats() const noexcept {
    return stats_;
  }

  /// Mirror totals into an obs registry as <prefix>.* counters.
  void publish(obs::Registry& registry,
               std::string_view prefix = "recover.convergence") const;

  /// A single connection's convergence predicate: terminal (Closed,
  /// Listen, TimeWait) or quiescent with nothing owed in either
  /// direction. FinWait2/Closing/LastAck are *not* converged — they owe
  /// a peer interaction that must complete (or keepalive must cut short)
  /// within the budget.
  [[nodiscard]] static bool pcb_converged(const stack::TcpPcb& p) noexcept;

 private:
  struct Tracked {
    stack::Host* host;
    fault::FaultInjector* injector;
  };

  void flag_violations();

  ConvergenceConfig cfg_;
  std::vector<Tracked> hosts_;
  std::vector<std::function<bool()>> clearances_;
  bool armed_ = false;
  bool flagged_ = false;
  std::uint64_t ready_passes_ = 0;
  std::vector<std::string> violations_;
  ConvergenceStats stats_;
};

}  // namespace ldlp::recover
