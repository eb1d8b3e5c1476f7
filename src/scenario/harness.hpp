// ldlp::scenario::Harness — the one runtime every chaos scenario runs on.
//
// A scenario is a workload function over a Harness: the harness builds
// the topology on a net::Fabric (two hosts "a"/"b" on one host-to-host
// link, or a fat-tree of "h<i>" hosts), wires every fault spec of the
// check::Schedule by host name, installs a check::HostAuditor per host,
// optionally puts every host under recover:: liveness supervision, owns
// the per-seed wall-clock deadline, and runs the one settle + hygiene
// check every scenario ends with. The workload only drives traffic and
// judges its own oracles.
//
// Every host ticks every kTickSec of fabric time (Host::advance_to +
// pump); one tick round is one pass for the liveness oracles, so their
// pass budgets are one pair for every scenario.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariants.hpp"
#include "check/schedule.hpp"
#include "fault/injector.hpp"
#include "net/fabric.hpp"
#include "recover/convergence.hpp"
#include "recover/watchdog.hpp"
#include "stack/host.hpp"

namespace ldlp::scenario {

/// Host tick round period of every scenario fabric.
inline constexpr double kTickSec = 5e-3;
/// Liveness budgets in tick rounds: the full retransmit ladder into reset
/// (~47 s) fits the convergence budget, and the capped rto_max 8 s silent
/// gap fits the watchdog's stall window.
inline constexpr std::uint64_t kConvergencePasses = 12000;
inline constexpr std::uint64_t kStallPasses = 2500;

/// The failure reason of a run that outlives its wall-clock deadline.
inline constexpr const char* kBudgetExceeded =
    "seed wall-clock budget exceeded (--seed_timeout_ms)";

/// One scenario run's verdict.
struct Result {
  bool pass = true;
  std::string why;     ///< First failure reason (empty while passing).
  std::string detail;  ///< Extra diagnostics printed under the reason.
  std::vector<std::string> violations;  ///< Every oracle/auditor finding.

  void fail(std::string reason) {
    if (pass) why = std::move(reason);
    pass = false;
  }
};

/// Fold any checker's violations() into `r`: each one fails the run as
/// "<reason>: <v>" and is listed as "<tag>: <v>".
template <class Checker>
void fold(Result& r, const Checker& checker, std::string_view reason,
          std::string_view tag) {
  for (const std::string& v : checker.violations()) {
    r.fail(std::string(reason) + ": " + v);
    r.violations.push_back(std::string(tag) + ": " + v);
  }
}

/// racks == 0 is the two-host pair; otherwise a fat-tree.
struct Topology {
  std::size_t racks = 0;
  std::size_t hosts_per_rack = 0;
  std::size_t spines = 0;
};

class Harness {
 public:
  /// Build `topology`, wire `schedule`'s injector specs and arm a
  /// `timeout_ms` wall-clock deadline (0 = none).
  Harness(const check::Schedule& schedule, Topology topology,
          std::uint64_t timeout_ms);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] net::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] std::size_t size() const noexcept { return hosts_.size(); }
  [[nodiscard]] stack::Host& host(std::size_t i) {
    return fabric_.host(hosts_[i]);
  }
  /// The injector attached to host `i` (the last spec naming it), or null.
  [[nodiscard]] fault::FaultInjector* injector(std::size_t i) const {
    return host_inj_[i];
  }
  /// True when any spec naming host `i` plans a host restart.
  [[nodiscard]] bool restart_victim(std::size_t i) const {
    return restart_victim_[i];
  }

  [[nodiscard]] bool expired() const;
  /// Every injector's plan drained and nothing left on any wire.
  [[nodiscard]] bool faults_cleared() const;

  /// Put every host (with its injector) under the ConvergenceOracle and
  /// ProgressWatchdog; each tick round counts as one pass of both.
  void supervise();
  [[nodiscard]] recover::ConvergenceOracle& convergence() noexcept {
    return conv_;
  }
  /// Extra per-tick-round work (after the liveness oracles' pass).
  void on_pass(std::function<void()> fn) { pass_fn_ = std::move(fn); }

  /// The one end-of-run check: wait (bounded) until the faults clear and
  /// no ARP park holds an mbuf, then detach the injectors and require
  /// drained graphs, held queue bounds, no mbuf leak and a balanced
  /// fabric ledger. Stops the per-pass hooks.
  void settle(Result& r);
  /// Fold every HostAuditor's findings.
  void fold_audits(Result& r) const;
  /// Fold the liveness oracles' findings (after supervise()).
  void fold_liveness(Result& r) const;

 private:
  void detach();

  net::Fabric fabric_;
  std::vector<net::HostId> hosts_;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors_;
  std::vector<fault::FaultInjector*> host_inj_;
  std::vector<bool> restart_victim_;
  std::vector<std::unique_ptr<check::HostAuditor>> auditors_;
  recover::ConvergenceOracle conv_{{kConvergencePasses}};
  recover::ProgressWatchdog dog_{{kStallPasses}};
  bool supervised_ = false;
  std::function<void()> pass_fn_;
  bool deadline_armed_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace ldlp::scenario
