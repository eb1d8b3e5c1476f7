#include "buf/packet.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

namespace ldlp::buf {

namespace {

/// Move an empty mbuf's data window to the very start of its buffer so the
/// entire area is trailing space.
void window_to_start(Mbuf& m) noexcept {
  LDLP_DASSERT(m.len() == 0);
  m.grow_front(m.leading_space());
  m.set_len(0);
}

}  // namespace

Packet Packet::make(MbufPool& pool) noexcept {
  Mbuf* m = pool.alloc(/*pkthdr=*/true);
  if (m == nullptr) return {};
  return Packet{pool, m};
}

Packet Packet::from_bytes(MbufPool& pool,
                          std::span<const std::uint8_t> payload) noexcept {
  Packet pkt = make(pool);
  if (!pkt) return pkt;
  // Leave the head window centered for header prepends; payload goes into
  // trailing space and clusters.
  if (!pkt.append(payload)) {
    pkt.reset();
    return {};
  }
  pkt.sync_pkt_len();
  return pkt;
}

Packet Packet::devget(MbufPool& pool,
                      std::span<const std::uint8_t> frame) noexcept {
  if (frame.size() > kClusterSize) return from_bytes(pool, frame);
  Packet pkt = make(pool);
  if (!pkt) return pkt;
  Mbuf& m = *pkt.head_;
  if (frame.size() > m.buffer_size() && !pool.add_cluster(m)) return {};
  const auto len = static_cast<std::uint32_t>(frame.size());
  // Empty window to the buffer's end, then grow it forward over the frame.
  m.grow_back(m.trailing_space());
  m.trim_front(m.len());
  std::memcpy(m.grow_front(len), frame.data(), len);
  m.set_pkt_len(len);
  return pkt;
}

std::uint32_t Packet::length() const noexcept {
  std::uint32_t total = 0;
  for (const Mbuf* m = head_; m != nullptr; m = m->next()) total += m->len();
  return total;
}

std::uint32_t Packet::chain_count() const noexcept {
  std::uint32_t n = 0;
  for (const Mbuf* m = head_; m != nullptr; m = m->next()) ++n;
  return n;
}

void Packet::sync_pkt_len() noexcept {
  if (head_ != nullptr) head_->set_pkt_len(length());
}

std::uint8_t* Packet::prepend(std::uint32_t n) noexcept {
  LDLP_DASSERT(head_ != nullptr);
  if (head_->leading_space() >= n) {
    return head_->grow_front(n);
  }
  // Allocate a fresh head mbuf; the header goes at its tail so later
  // prepends still have room in front.
  Mbuf* m = pool_->alloc(/*pkthdr=*/true);
  if (m == nullptr) return nullptr;
  if (n > m->buffer_size()) {  // header larger than an mbuf: caller error
    pool_->free_one(m);
    return nullptr;
  }
  m->set_pkt_len(head_->pkt_len());
  m->set_next(head_);
  head_ = m;
  if (m->leading_space() < n) {
    // Shift the empty window toward the buffer end so the header fits in
    // front while leaving the rest of the leading area for later layers.
    const std::uint32_t deficit = n - m->leading_space();
    m->grow_back(deficit);
    m->trim_front(deficit);
  }
  return m->grow_front(n);
}

bool Packet::append(std::span<const std::uint8_t> payload) noexcept {
  LDLP_DASSERT(head_ != nullptr);
  Mbuf* tail = head_;
  while (tail->next() != nullptr) tail = tail->next();
  while (!payload.empty()) {
    std::uint32_t space = tail->trailing_space();
    if (space == 0) {
      Mbuf* m = pool_->alloc();
      if (m == nullptr) return false;
      if (payload.size() > m->buffer_size() / 2) {
        if (!pool_->add_cluster(*m)) {
          pool_->free_one(m);
          return false;
        }
      }
      // Pure payload buffers use their whole area.
      window_to_start(*m);
      tail->set_next(m);
      tail = m;
      space = tail->trailing_space();
    }
    const auto take =
        static_cast<std::uint32_t>(std::min<std::size_t>(space, payload.size()));
    std::memcpy(tail->grow_back(take), payload.data(), take);
    payload = payload.subspan(take);
  }
  return true;
}

void Packet::adj(std::int32_t n) noexcept {
  if (head_ == nullptr || n == 0) return;
  if (n > 0) {
    auto remaining = static_cast<std::uint32_t>(n);
    Mbuf* m = head_;
    while (m != nullptr && remaining > 0) {
      const std::uint32_t take = std::min(remaining, m->len());
      m->trim_front(take);
      remaining -= take;
      if (m->len() == 0 && m != head_) {
        // Free emptied interior mbufs by relinking from the head.
        Mbuf* prev = head_;
        while (prev->next() != m) prev = prev->next();
        prev->set_next(pool_->free_one(m));
        m = prev->next();
      } else {
        m = m->next();
      }
    }
  } else {
    auto remaining = static_cast<std::uint32_t>(-n);
    while (remaining > 0 && head_ != nullptr) {
      // Find the last mbuf with data.
      Mbuf* last = nullptr;
      for (Mbuf* m = head_; m != nullptr; m = m->next()) {
        if (m->len() > 0) last = m;
      }
      if (last == nullptr) break;
      const std::uint32_t take = std::min(remaining, last->len());
      last->trim_back(take);
      remaining -= take;
      if (last->len() == 0 && last != head_) {
        Mbuf* prev = head_;
        while (prev->next() != last) prev = prev->next();
        prev->set_next(pool_->free_one(last));
      }
    }
  }
  sync_pkt_len();
}

std::uint8_t* Packet::pullup(std::uint32_t n) noexcept {
  if (head_ == nullptr || n > length()) return nullptr;
  if (head_->len() >= n) return head_->data();
  if (n > head_->buffer_size()) return nullptr;

  // Compact the first n bytes into a fresh head mbuf (simpler than BSD's
  // in-place shuffle and equivalent for correctness).
  Mbuf* fresh = pool_->alloc(/*pkthdr=*/true);
  if (fresh == nullptr) return nullptr;
  if (n > fresh->buffer_size()) {
    pool_->free_one(fresh);
    return nullptr;
  }
  fresh->set_pkt_len(head_->pkt_len());
  if (fresh->trailing_space() < n) window_to_start(*fresh);

  std::uint8_t* dst = fresh->grow_back(n);
  std::uint32_t copied = 0;
  Mbuf* m = head_;
  while (m != nullptr && copied < n) {
    const std::uint32_t take = std::min(n - copied, m->len());
    std::memcpy(dst + copied, m->data(), take);
    m->trim_front(take);
    copied += take;
    if (m->len() == 0) {
      Mbuf* next = pool_->free_one(m);
      m = next;
    }
  }
  fresh->set_next(m);
  head_ = fresh;
  return fresh->data();
}

bool Packet::copy_out(std::uint32_t off,
                      std::span<std::uint8_t> dst) const noexcept {
  const Mbuf* m = head_;
  while (m != nullptr && off >= m->len()) {
    off -= m->len();
    m = m->next();
  }
  std::size_t copied = 0;
  while (m != nullptr && copied < dst.size()) {
    const auto take = static_cast<std::uint32_t>(
        std::min<std::size_t>(m->len() - off, dst.size() - copied));
    std::memcpy(dst.data() + copied, m->data() + off, take);
    copied += take;
    off = 0;
    m = m->next();
  }
  return copied == dst.size();
}

bool Packet::copy_in(std::uint32_t off,
                     std::span<const std::uint8_t> src) noexcept {
  Mbuf* m = head_;
  while (m != nullptr && off >= m->len()) {
    off -= m->len();
    m = m->next();
  }
  std::size_t copied = 0;
  while (m != nullptr && copied < src.size()) {
    const auto take = static_cast<std::uint32_t>(
        std::min<std::size_t>(m->len() - off, src.size() - copied));
    std::memcpy(m->data() + off, src.data() + copied, take);
    copied += take;
    off = 0;
    m = m->next();
  }
  return copied == src.size();
}

Packet Packet::split(std::uint32_t off) noexcept {
  if (head_ == nullptr || off > length()) return {};

  Packet rest = make(*pool_);
  if (!rest) return {};

  // Walk to the split point.
  Mbuf* m = head_;
  std::uint32_t pos = off;
  while (m != nullptr && pos > m->len()) {
    pos -= m->len();
    m = m->next();
  }
  if (m == nullptr) {  // off == length(): empty tail
    rest.sync_pkt_len();
    return rest;
  }

  if (pos < m->len()) {
    // Copy the partial tail of `m` into the new packet's head, then trim.
    const std::uint32_t tail_len = m->len() - pos;
    if (!rest.append({m->data() + pos, tail_len})) {
      rest.reset();
      return {};
    }
    m->trim_back(tail_len);
  }
  // Move the remaining whole mbufs over.
  Mbuf* moved = m->next();
  m->set_next(nullptr);
  if (moved != nullptr) {
    Mbuf* rest_tail = rest.head_;
    while (rest_tail->next() != nullptr) rest_tail = rest_tail->next();
    rest_tail->set_next(moved);
  }
  sync_pkt_len();
  rest.sync_pkt_len();
  return rest;
}

void Packet::cat(Packet&& other) noexcept {
  if (other.head_ == nullptr) return;
  LDLP_DASSERT(other.pool_ == pool_);
  if (head_ == nullptr) {
    head_ = other.release();
    sync_pkt_len();
    return;
  }
  Mbuf* tail = head_;
  while (tail->next() != nullptr) tail = tail->next();
  tail->set_next(other.release());
  sync_pkt_len();
}

std::optional<std::span<const std::uint8_t>> Packet::try_view(
    std::uint32_t off, std::uint32_t len) const noexcept {
  const Mbuf* m = head_;
  while (m != nullptr && off >= m->len()) {
    off -= m->len();
    m = m->next();
  }
  if (m == nullptr || m->len() - off < len) return std::nullopt;
  return std::span<const std::uint8_t>{m->data() + off, len};
}

void Packet::reset() noexcept {
  if (head_ != nullptr) {
    pool_->free_chain(head_);
    head_ = nullptr;
  }
}

}  // namespace ldlp::buf
