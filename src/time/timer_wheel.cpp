#include "time/timer_wheel.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace ldlp::time {

const char* timer_class_name(TimerClass cls) noexcept {
  switch (cls) {
    case TimerClass::kLiveness: return "liveness";
    case TimerClass::kCadence: return "cadence";
    case TimerClass::kExpiry: return "expiry";
  }
  return "?";
}

TimerWheel::TimerWheel(WheelConfig config) : cfg_(config) {
  LDLP_ASSERT_MSG(cfg_.tick_sec > 0.0, "wheel tick must be positive");
}

const TimerWheel::Node* TimerWheel::resolve(TimerId id) const noexcept {
  if (id == kNoTimer) return nullptr;
  const std::uint32_t index = index_of(id);
  if (index >= nodes_.size()) return nullptr;
  const Node& node = nodes_[index];
  if (!node.live || node.gen != gen_of(id)) return nullptr;
  return &node;
}

TimerId TimerWheel::arm(double deadline_sec, TimerClass cls,
                        std::function<void()> fn) {
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& node = nodes_[index];
  node.deadline = deadline_sec;
  // Round the deadline tick up so a timer never fires before its time;
  // the epsilon keeps an exactly-on-boundary deadline on its boundary.
  const double ticks = deadline_sec / cfg_.tick_sec;
  node.tick = ticks <= 0.0
                  ? 0
                  : static_cast<std::uint64_t>(std::ceil(ticks - 1e-9));
  node.seq = ++seq_;
  node.cls = cls;
  node.live = true;
  node.fn = std::move(fn);
  const TimerId id =
      (static_cast<std::uint64_t>(node.gen) << 32) | (index + 1ull);
  place(id);
  soonest_.emplace_back(node.deadline, id);
  std::push_heap(soonest_.begin(), soonest_.end(), std::greater<>{});
  ++live_;
  if (soonest_.size() > 2 * live_ + 64) {
    // Nothing on the advance path peels the heap, so drop the stale
    // entries here: each live id has exactly one entry, so the rebuilt
    // heap pops in the same order, and the O(heap) rebuild is paid for by
    // the live_ + 64 arms since the last one.
    std::erase_if(soonest_, [this](const std::pair<double, TimerId>& e) {
      const Node* live = resolve(e.second);
      return live == nullptr || live->deadline != e.first;
    });
    std::make_heap(soonest_.begin(), soonest_.end(), std::greater<>{});
  }
  ++stats_.arms;
  stats_.max_armed = std::max<std::uint64_t>(stats_.max_armed, live_);
  emit(TimerEvent::Kind::kArm, node, id);
  return id;
}

void TimerWheel::place(TimerId id) {
  const Node& node = nodes_[index_of(id)];
  if (node.tick <= now_tick_) {
    due_now_.push_back(id);
    return;
  }
  const std::uint64_t delta = node.tick - now_tick_;
  for (int level = 0; level < kLevels; ++level) {
    if (delta < (1ull << (kSlotBits * (level + 1)))) {
      const std::uint64_t slot = (node.tick >> (kSlotBits * level)) & kSlotMask;
      slots_[level][slot].push_back(id);
      return;
    }
  }
  overflow_.push_back(id);
}

std::function<void()> TimerWheel::detach(std::uint32_t index) {
  Node& node = nodes_[index];
  std::function<void()> fn = std::move(node.fn);
  node.fn = nullptr;
  node.live = false;
  ++node.gen;
  free_.push_back(index);
  --live_;
  return fn;
}

bool TimerWheel::cancel(TimerId id) {
  const Node* node = resolve(id);
  if (node == nullptr) return false;
  emit(TimerEvent::Kind::kCancel, *node, id);
  // The slot reference goes stale; the generation bump guards against it.
  (void)detach(index_of(id));
  ++stats_.cancels;
  return true;
}

bool TimerWheel::armed(TimerId id) const noexcept {
  return resolve(id) != nullptr;
}

double TimerWheel::deadline_of(TimerId id) const noexcept {
  const Node* node = resolve(id);
  return node != nullptr ? node->deadline
                         : std::numeric_limits<double>::infinity();
}

void TimerWheel::pop_soonest() const noexcept {
  std::pop_heap(soonest_.begin(), soonest_.end(), std::greater<>{});
  soonest_.pop_back();
}

double TimerWheel::next_deadline() const noexcept {
  while (!soonest_.empty()) {
    const auto& [deadline, id] = soonest_.front();
    const Node* node = resolve(id);
    if (node != nullptr && node->deadline == deadline) return deadline;
    pop_soonest();  // fired, cancelled, or superseded — peel and retry
  }
  return std::numeric_limits<double>::infinity();
}

void TimerWheel::emit(TimerEvent::Kind kind, const Node& node, TimerId id) {
  if (!observer_) return;
  observer_(TimerEvent{kind, id, node.cls, node.deadline, now_});
}

void TimerWheel::advance_to(double now_sec) {
  if (now_sec > now_) {
    now_ = now_sec;
    const std::uint64_t target =
        static_cast<std::uint64_t>(now_ / cfg_.tick_sec + 1e-9);

    // Collect everything that comes due while turning the wheel up to
    // the target tick. due_now_ holds timers armed in the past *before*
    // this advance (they fire now); arms-in-past made by callbacks
    // during the firing phase land in due_now_ for the next advance.
    std::vector<TimerId> due = std::move(due_now_);
    due_now_.clear();

    while (now_tick_ < target) {
      ++now_tick_;
      // Cascade outer levels at their rotation boundaries first, so a
      // refiled timer due at this very tick joins this batch.
      for (int level = 1; level < kLevels; ++level) {
        if ((now_tick_ & ((1ull << (kSlotBits * level)) - 1)) != 0) break;
        auto& outer =
            slots_[level][(now_tick_ >> (kSlotBits * level)) & kSlotMask];
        std::vector<TimerId> refile;
        refile.swap(outer);
        for (const TimerId id : refile) {
          if (resolve(id) != nullptr) {
            ++stats_.cascades;
            place(id);
          }
        }
        if (level == kLevels - 1) {
          // The top level wrapped: overflow timers may now fit.
          std::vector<TimerId> spill;
          spill.swap(overflow_);
          for (const TimerId id : spill) {
            if (resolve(id) != nullptr) {
              ++stats_.cascades;
              place(id);
            }
          }
        }
      }
      auto& slot = slots_[0][now_tick_ & kSlotMask];
      for (const TimerId id : slot) {
        const Node* node = resolve(id);
        if (node != nullptr && node->tick <= now_tick_) due.push_back(id);
      }
      slot.clear();
      if (!due_now_.empty()) {
        // Cascaded timers already due (deadline tick == this tick).
        due.insert(due.end(), due_now_.begin(), due_now_.end());
        due_now_.clear();
      }
    }

    // Deterministic firing order regardless of slot/cascade geometry.
    std::sort(due.begin(), due.end(), [this](TimerId a, TimerId b) {
      const Node& na = nodes_[index_of(a)];
      const Node& nb = nodes_[index_of(b)];
      if (na.deadline != nb.deadline) return na.deadline < nb.deadline;
      return na.seq < nb.seq;
    });
    for (const TimerId id : due) {
      const Node* node = resolve(id);
      if (node == nullptr || node->tick > now_tick_) continue;  // gone/refiled
      if (!cfg_.shed_guard && now_ - node->deadline > cfg_.stale_shed_sec) {
        // Reverted guard: a deadline left far behind by a clock jump is
        // "stale" and silently dropped — the bug class DeadlineOracle
        // exists to catch.
        emit(TimerEvent::Kind::kShed, *node, id);
        (void)detach(index_of(id));
        ++stats_.shed;
        continue;
      }
      emit(TimerEvent::Kind::kFire, *node, id);
      std::function<void()> fn = detach(index_of(id));
      ++stats_.fires;
      if (fn) fn();  // may arm/cancel; nodes_ may grow — no refs held
    }
  }

  // Timer storm: fire up to `storm_` not-yet-due timers early (earliest
  // first, so the blast is deterministic), shedding demand beyond the
  // cap. Handlers tolerate early wakeups by re-checking their own state
  // deadlines and re-arming, so a storm costs work, not correctness —
  // and because due timers above fire unconditionally, a storm can
  // never starve them.
  if (storm_ > 0) {
    int quota = std::min(storm_, cfg_.storm_spurious_cap);
    stats_.shed += static_cast<std::uint64_t>(storm_ - quota);
    while (quota > 0 && !soonest_.empty()) {
      const auto [deadline, id] = soonest_.front();
      pop_soonest();
      const Node* node = resolve(id);
      if (node == nullptr || node->deadline != deadline) continue;
      emit(TimerEvent::Kind::kSpurious, *node, id);
      std::function<void()> fn = detach(index_of(id));
      ++stats_.spurious_fires;
      --quota;
      if (fn) fn();
    }
  }
}

}  // namespace ldlp::time
