// TimerWheel: a 4.4BSD-callout-style hierarchical timing wheel.
//
// Every retry/cadence surface in the stack (TCP rtx/persist/keepalive/
// TIME_WAIT, ARP re-requests, DNS retry ladders, RPC leg RTOs, overlay
// probe/shuffle/graft cadences) used to rediscover its own deadlines by
// scanning its state once per scheduler pass — per-pass overhead of
// exactly the kind the paper indicts for small messages. The wheel turns
// that into O(1) arm/cancel and an advance whose cost is proportional to
// time passed plus timers actually due, so an idle host costs nothing
// and ldlp::net::Fabric can skip its tick rounds entirely.
//
// Determinism contract: timers fire in ascending (deadline, arm-seq)
// order within one advance, so two runs arming the same timers fire the
// same callbacks in the same order regardless of wheel occupancy or
// --jobs. Arming a timer in the past is legal and fires on the next
// advance; cancelling an already-fired or already-cancelled timer is a
// no-op returning false.
//
// Fault surface: set_storm_level(n) models a timer storm (spurious
// wakeups): each advance fires up to n not-yet-due timers early, capped
// at storm_spurious_cap — the excess is shed. The shed_guard config knob
// is a mutation revert-guard (precedent: TcpConfig::enable_persist_timer)
// — when reverted, an advance that jumps far past a deadline (the
// clock-stall recovery snap) sheds the overdue timer instead of firing
// it, which recover::DeadlineOracle must catch.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace ldlp::time {

/// Opaque timer handle. 0 is never a live timer.
using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

/// Liveness classification, carried per timer so storm shedding and the
/// deadline oracle can tell "the connection dies without this" apart
/// from background cadence and pure state expiry.
enum class TimerClass : std::uint8_t {
  kLiveness,  ///< Retransmit/probe timers: losing one wedges progress.
  kCadence,   ///< Periodic background work (shuffles, digests, delack).
  kExpiry,    ///< State garbage collection (TIME_WAIT, cache TTLs).
};
inline constexpr std::size_t kTimerClassCount = 3;

[[nodiscard]] const char* timer_class_name(TimerClass cls) noexcept;

struct WheelConfig {
  double tick_sec = 1e-3;  ///< Wheel resolution; deadlines round up.
  /// Mutation revert-guard: true (default) fires every overdue timer on
  /// a large clock jump (stall recovery); false re-introduces the bug
  /// class where recovery "sheds" stale timers — they silently never
  /// fire — so the deadline oracle can prove it would catch it.
  bool shed_guard = true;
  /// Overdue-beyond-this threshold for the reverted guard's shedding.
  double stale_shed_sec = 0.25;
  /// Max spurious (early) fires per advance under a timer storm; demand
  /// beyond the cap is shed so a storm cannot starve due timers.
  int storm_spurious_cap = 8;
};

struct WheelStats {
  std::uint64_t arms = 0;
  std::uint64_t fires = 0;           ///< On-time (due) fires.
  std::uint64_t cancels = 0;
  std::uint64_t spurious_fires = 0;  ///< Storm-induced early fires.
  std::uint64_t shed = 0;            ///< Fires dropped (storm cap / guard off).
  std::uint64_t cascades = 0;        ///< Timers re-filed from outer levels.
  std::uint64_t max_armed = 0;       ///< High-water mark of live timers.
};

/// Event stream for oracles (recover::DeadlineOracle subscribes).
struct TimerEvent {
  enum class Kind : std::uint8_t { kArm, kFire, kCancel, kShed, kSpurious };
  Kind kind;
  TimerId id = kNoTimer;
  TimerClass cls = TimerClass::kCadence;
  double deadline = 0.0;  ///< The armed deadline.
  double now = 0.0;       ///< Wheel time at the event.
};

class TimerWheel {
 public:
  explicit TimerWheel(WheelConfig config = {});

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Arm a one-shot timer. The callback runs inside advance_to(); it may
  /// arm or cancel timers freely (a timer armed in the past from inside
  /// a callback fires on the *next* advance, not the current one).
  [[nodiscard]] TimerId arm(double deadline_sec, TimerClass cls,
                            std::function<void()> fn);

  /// O(1). False if the id already fired, was cancelled, or never existed.
  bool cancel(TimerId id);

  [[nodiscard]] bool armed(TimerId id) const noexcept;
  /// Armed deadline of `id`, +inf when not armed.
  [[nodiscard]] double deadline_of(TimerId id) const noexcept;

  /// Advance wheel time and fire everything due, in (deadline, seq)
  /// order. Time never moves backwards; a stale `now_sec` is a no-op
  /// (still applies storm-induced spurious fires).
  void advance_to(double now_sec);

  [[nodiscard]] double now() const noexcept { return now_; }
  /// Earliest armed deadline, +inf when the wheel is empty. O(log n)
  /// amortized — this is what makes event-driven idle ticks possible.
  [[nodiscard]] double next_deadline() const noexcept;
  [[nodiscard]] std::size_t armed_count() const noexcept { return live_; }
  /// Entries in the lazy deadline heap, stale ones included; kept at most
  /// 2 * armed_count() + 64.
  [[nodiscard]] std::size_t deadline_heap_size() const noexcept {
    return soonest_.size();
  }
  [[nodiscard]] const WheelStats& stats() const noexcept { return stats_; }
  [[nodiscard]] WheelConfig& config() noexcept { return cfg_; }

  /// Timer-storm intensity: >0 fires up to that many not-yet-due timers
  /// spuriously per advance (capped at storm_spurious_cap, excess shed).
  void set_storm_level(int level) noexcept { storm_ = level; }

  void set_observer(std::function<void(const TimerEvent&)> observer) {
    observer_ = std::move(observer);
  }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;  // 64
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  struct Node {
    double deadline = 0.0;
    std::uint64_t tick = 0;
    std::uint64_t seq = 0;      ///< Arm order; firing tiebreaker.
    std::uint32_t gen = 0;      ///< Bumped on fire/cancel; stale-ref guard.
    TimerClass cls = TimerClass::kCadence;
    bool live = false;
    std::function<void()> fn;
  };

  [[nodiscard]] static std::uint32_t index_of(TimerId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  [[nodiscard]] static std::uint32_t gen_of(TimerId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }
  [[nodiscard]] const Node* resolve(TimerId id) const noexcept;
  void place(TimerId id);  ///< File a live node by its tick delta.
  void emit(TimerEvent::Kind kind, const Node& node, TimerId id);
  /// Detach a node (bump gen, free the slot) returning its callback.
  std::function<void()> detach(std::uint32_t index);
  /// Pop the soonest_ heap's top entry.
  void pop_soonest() const noexcept;

  WheelConfig cfg_;
  double now_ = 0.0;
  std::uint64_t now_tick_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t live_ = 0;
  int storm_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  /// slots_[level][slot] holds timer ids; stale refs (cancelled/refiled
  /// timers, reused node slots) are detected by the generation check.
  std::vector<TimerId> slots_[kLevels][kSlots];
  std::vector<TimerId> overflow_;  ///< Beyond the level-3 horizon.
  std::vector<TimerId> due_now_;   ///< Armed-in-past; fire next advance.
  /// Lazy min-heap (std::greater<> heap order) over (deadline, id) for
  /// next_deadline() and storms; entries for fired/cancelled timers are
  /// peeled on query, and arm() drops them all once they outnumber the
  /// live ones.
  mutable std::vector<std::pair<double, TimerId>> soonest_;
  WheelStats stats_;
  std::function<void(const TimerEvent&)> observer_;
};

}  // namespace ldlp::time
