// Packet: RAII handle over an mbuf chain, plus the classic chain
// operations (m_prepend, m_adj, m_pullup, m_copydata, m_split, m_cat...).
//
// A Packet owns its chain; moving a Packet transfers ownership (which is
// exactly the "lower layers hand off their buffers to the higher layers"
// discipline LDLP requires, expressed in the type system). Destruction
// returns every mbuf to its pool.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "buf/pool.hpp"

namespace ldlp::buf {

class Packet {
 public:
  Packet() = default;
  Packet(MbufPool& pool, Mbuf* head) noexcept : pool_(&pool), head_(head) {}

  Packet(Packet&& other) noexcept : pool_(other.pool_), head_(other.head_) {
    other.head_ = nullptr;
  }
  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      reset();
      pool_ = other.pool_;
      head_ = other.head_;
      other.head_ = nullptr;
    }
    return *this;
  }

  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  ~Packet() { reset(); }

  /// Allocate an empty packet (one pkthdr mbuf, window centered).
  /// Returns an empty Packet if the pool is exhausted.
  [[nodiscard]] static Packet make(MbufPool& pool) noexcept;

  /// Allocate a packet containing a copy of `payload`, spread over
  /// cluster-backed mbufs as needed.
  [[nodiscard]] static Packet from_bytes(
      MbufPool& pool, std::span<const std::uint8_t> payload) noexcept;

  /// m_devget: copy a received frame into one buffer — the pkthdr mbuf's
  /// internal area when it fits, else one cluster attached to it — so
  /// every layer above walks a single mbuf. The frame sits at the end of
  /// its buffer, leaving all spare room in front for a reply that reuses
  /// it to prepend headers in place. Frames longer than a cluster fall
  /// back to from_bytes. Empty Packet if the pool (or, for a frame that
  /// needs one, the cluster pool) is exhausted.
  [[nodiscard]] static Packet devget(
      MbufPool& pool, std::span<const std::uint8_t> frame) noexcept;

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  explicit operator bool() const noexcept { return head_ != nullptr; }

  [[nodiscard]] Mbuf* head() noexcept { return head_; }
  [[nodiscard]] const Mbuf* head() const noexcept { return head_; }
  [[nodiscard]] MbufPool* pool() noexcept { return pool_; }

  /// Total payload bytes in the chain (recomputed, not the cached pkt_len).
  [[nodiscard]] std::uint32_t length() const noexcept;

  /// Number of mbufs in the chain.
  [[nodiscard]] std::uint32_t chain_count() const noexcept;

  /// Refresh the pkthdr cached length from the chain.
  void sync_pkt_len() noexcept;

  /// --- BSD chain operations ---------------------------------------------

  /// M_PREPEND: make room for `n` bytes in front, allocating a new head
  /// mbuf when the current one has no leading space. Returns a pointer to
  /// the new front bytes, or nullptr on allocation failure.
  [[nodiscard]] std::uint8_t* prepend(std::uint32_t n) noexcept;

  /// Append `payload`, using trailing space then new cluster mbufs.
  /// Returns false on allocation failure (packet may be partly extended).
  [[nodiscard]] bool append(std::span<const std::uint8_t> payload) noexcept;

  /// m_adj: trim `n` bytes from the front (positive) or back (negative),
  /// freeing emptied mbufs (the head mbuf is kept even if empty, as BSD
  /// keeps the pkthdr).
  void adj(std::int32_t n) noexcept;

  /// m_pullup: ensure the first `n` bytes are contiguous in the head mbuf.
  /// Returns a pointer to them, or nullptr if the chain is shorter than
  /// `n` or it cannot fit in one mbuf's internal area.
  [[nodiscard]] std::uint8_t* pullup(std::uint32_t n) noexcept;

  /// m_copydata: copy `len` bytes starting at `off` into `dst`.
  /// Returns false if the chain is too short.
  [[nodiscard]] bool copy_out(std::uint32_t off,
                              std::span<std::uint8_t> dst) const noexcept;

  /// Overwrite bytes at `off` from `src` (chain must already cover them).
  [[nodiscard]] bool copy_in(std::uint32_t off,
                             std::span<const std::uint8_t> src) noexcept;

  /// m_split: split at `off`; this keeps [0, off), the returned packet
  /// holds [off, end). Returns empty packet on failure (chain unchanged
  /// if off > length()).
  [[nodiscard]] Packet split(std::uint32_t off) noexcept;

  /// m_cat: append other's chain to this (other is consumed).
  void cat(Packet&& other) noexcept;

  /// Contiguous view of bytes [off, off+len) if they happen to sit in one
  /// mbuf; nullopt otherwise (caller falls back to copy_out).
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> try_view(
      std::uint32_t off, std::uint32_t len) const noexcept;

  /// Release the chain back to the pool.
  void reset() noexcept;

  /// Give up ownership (e.g. to hand the raw chain to a queue).
  [[nodiscard]] Mbuf* release() noexcept {
    Mbuf* m = head_;
    head_ = nullptr;
    return m;
  }

 private:
  MbufPool* pool_ = nullptr;
  Mbuf* head_ = nullptr;
};

}  // namespace ldlp::buf
