// Open-addressed 4-tuple -> PCB id table: the O(1) lookup TcpLayer's
// single-entry PCB cache falls through to. 4.4BSD scanned a PCB list
// here, which is fine for the paper's one long exchange but linear in the
// connection count once flows interleave (Jain, DEC-TR-592).
//
// Power-of-two capacity, linear probing, key and id stored inline in the
// slot (a lookup reads nothing but the slot array), deletion by backward
// shift (no tombstones, so probe lengths never decay), doubling at load
// 0.5. Every operation is a pure function of the key sequence, so probe
// counts are deterministic.
#pragma once

#include <cstdint>
#include <vector>

namespace ldlp::stack {

using PcbId = std::uint32_t;
inline constexpr PcbId kNoPcb = ~PcbId{0};

/// A connection's 4-tuple, seen from the local host.
struct PcbKey {
  std::uint32_t remote_ip = 0;
  std::uint32_t local_ip = 0;
  std::uint16_t remote_port = 0;
  std::uint16_t local_port = 0;

  friend bool operator==(const PcbKey&, const PcbKey&) = default;
};

class PcbTable {
 public:
  struct Hit {
    PcbId id = kNoPcb;         ///< kNoPcb when the key is absent.
    std::uint32_t probes = 0;  ///< Slots read, the final one included.
  };

  [[nodiscard]] Hit find(const PcbKey& key) const noexcept;
  /// Add `key` -> `id`; the key must not be present.
  void insert(const PcbKey& key, PcbId id);
  /// Remove `key`. Returns false if absent.
  bool erase(const PcbKey& key) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    PcbKey key;
    PcbId id = kNoPcb;  ///< kNoPcb marks an empty slot.
  };

  [[nodiscard]] std::size_t home(const PcbKey& key) const noexcept;
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace ldlp::stack
