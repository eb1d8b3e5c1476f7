#include "stack/pcb_table.hpp"

#include "common/assert.hpp"

namespace ldlp::stack {

namespace {
constexpr std::size_t kMinCapacity = 16;
}  // namespace

std::size_t PcbTable::home(const PcbKey& key) const noexcept {
  // splitmix64's finalizer over the packed tuple: every input bit reaches
  // the low bits the mask keeps.
  std::uint64_t x = (std::uint64_t{key.remote_ip} << 32 | key.local_ip) ^
                    ((std::uint64_t{key.remote_port} << 16 | key.local_port) *
                     0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x) & (slots_.size() - 1);
}

PcbTable::Hit PcbTable::find(const PcbKey& key) const noexcept {
  if (slots_.empty()) return {};
  const std::size_t mask = slots_.size() - 1;
  std::uint32_t probes = 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask, ++probes) {
    const Slot& s = slots_[i];
    if (s.id == kNoPcb) return {kNoPcb, probes};
    if (s.key == key) return {s.id, probes};
  }
}

void PcbTable::insert(const PcbKey& key, PcbId id) {
  LDLP_ASSERT(id != kNoPcb);
  if ((size_ + 1) * 2 > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key);
  for (; slots_[i].id != kNoPcb; i = (i + 1) & mask)
    LDLP_ASSERT_MSG(!(slots_[i].key == key), "duplicate PCB 4-tuple");
  slots_[i] = Slot{key, id};
  ++size_;
}

bool PcbTable::erase(const PcbKey& key) noexcept {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(key);
  for (;; hole = (hole + 1) & mask) {
    if (slots_[hole].id == kNoPcb) return false;
    if (slots_[hole].key == key) break;
  }
  // Backward shift: walk the cluster past the hole and pull back every
  // entry whose home does not lie cyclically in (hole, j] — those are
  // exactly the entries whose probe path crossed the hole.
  for (std::size_t j = (hole + 1) & mask; slots_[j].id != kNoPcb;
       j = (j + 1) & mask) {
    const std::size_t from_home = (j - home(slots_[j].key)) & mask;
    if (from_home >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

void PcbTable::grow() {
  std::vector<Slot> old(slots_.empty() ? kMinCapacity : slots_.size() * 2);
  old.swap(slots_);
  size_ = 0;
  for (const Slot& s : old)
    if (s.id != kNoPcb) insert(s.key, s.id);
}

}  // namespace ldlp::stack
