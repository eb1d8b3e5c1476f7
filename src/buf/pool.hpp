// Mbuf and cluster pool.
//
// Fixed-capacity slab allocator with O(1) freelists. Allocation failure is
// reported, not thrown: a protocol stack under overload must shed packets,
// not unwind. The pool tracks outstanding buffers so tests can assert
// leak-freedom after every scenario. Slab slots are constructed on first
// hand-out, so a pool touches only the memory its traffic actually uses.
#pragma once

#include <cstdint>
#include <vector>

#include "buf/mbuf.hpp"

namespace ldlp::buf {

struct PoolStats {
  std::uint64_t mbuf_allocs = 0;
  std::uint64_t mbuf_frees = 0;
  std::uint64_t cluster_allocs = 0;
  std::uint64_t cluster_frees = 0;
  std::uint64_t alloc_failures = 0;

  [[nodiscard]] std::uint64_t mbufs_outstanding() const noexcept {
    return mbuf_allocs - mbuf_frees;
  }
  [[nodiscard]] std::uint64_t clusters_outstanding() const noexcept {
    return cluster_allocs - cluster_frees;
  }
};

class MbufPool {
 public:
  explicit MbufPool(std::size_t mbuf_count = 4096,
                    std::size_t cluster_count = 1024);

  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;
  ~MbufPool();

  /// Allocate one mbuf with an empty, centered data window. Returns
  /// nullptr when the pool is exhausted. `pkthdr` marks it as the first
  /// mbuf of a packet.
  [[nodiscard]] Mbuf* alloc(bool pkthdr = false) noexcept;

  /// Attach a fresh cluster to `m` (which must have len == 0). The data
  /// window moves into the cluster. Returns false if no clusters remain.
  [[nodiscard]] bool add_cluster(Mbuf& m) noexcept;

  /// Share `from`'s cluster with `to` (refcounted, zero-copy). `to` gets
  /// the same data window as `from`.
  void share_cluster(const Mbuf& from, Mbuf& to) noexcept;

  /// Free one mbuf (not its chain); returns m->next() for m_free()-style
  /// iteration.
  Mbuf* free_one(Mbuf* m) noexcept;

  /// Free an entire chain.
  void free_chain(Mbuf* m) noexcept;

  [[nodiscard]] const PoolStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t mbufs_free() const noexcept {
    return mbufs_.available();
  }
  [[nodiscard]] std::size_t clusters_free() const noexcept {
    return clusters_.available();
  }

 private:
  /// Fixed storage for `capacity` Ts, handed out LIFO. A slot that was
  /// never handed out stays raw memory until take() constructs it in
  /// place; untouched slots go out in address order, and only after every
  /// freed slot is reused. That is exactly the order a free list holding
  /// the whole slab from the start would give.
  template <typename T>
  class Slab {
   public:
    explicit Slab(std::size_t capacity);
    ~Slab();
    Slab(const Slab&) = delete;
    Slab& operator=(const Slab&) = delete;

    /// The most recently freed slot, else the next untouched one, else
    /// nullptr.
    [[nodiscard]] T* take() noexcept;
    void give(T* slot) noexcept { free_.push_back(slot); }
    [[nodiscard]] std::size_t available() const noexcept {
      return free_.size() + (capacity_ - used_);
    }

   private:
    T* base_;
    std::size_t capacity_;
    std::size_t used_ = 0;   ///< Slots [0, used_) have been constructed.
    std::vector<T*> free_;   ///< Reserved to capacity: give() never allocates.
  };

  void release_cluster(Cluster* c) noexcept;

  Slab<Mbuf> mbufs_;
  Slab<Cluster> clusters_;
  PoolStats stats_;
};

}  // namespace ldlp::buf
