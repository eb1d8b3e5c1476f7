#include "buf/pool.hpp"

#include <memory>
#include <new>
#include <type_traits>

#include "common/assert.hpp"

namespace ldlp::buf {

template <typename T>
MbufPool::Slab<T>::Slab(std::size_t capacity)
    : base_(std::allocator<T>{}.allocate(capacity)), capacity_(capacity) {
  free_.reserve(capacity);
}

template <typename T>
MbufPool::Slab<T>::~Slab() {
  // Slots are never destroyed one by one; that is sound only while T
  // has nothing to destroy.
  static_assert(std::is_trivially_destructible_v<T>);
  std::allocator<T>{}.deallocate(base_, capacity_);
}

template <typename T>
T* MbufPool::Slab<T>::take() noexcept {
  if (!free_.empty()) {
    T* slot = free_.back();
    free_.pop_back();
    return slot;
  }
  if (used_ == capacity_) return nullptr;
  return ::new (static_cast<void*>(base_ + used_++)) T;
}

MbufPool::MbufPool(std::size_t mbuf_count, std::size_t cluster_count)
    : mbufs_(mbuf_count), clusters_(cluster_count) {
  LDLP_ASSERT(mbuf_count > 0);
}

MbufPool::~MbufPool() {
  LDLP_ASSERT_MSG(stats_.mbufs_outstanding() == 0,
                  "mbuf leak detected at pool destruction");
}

Mbuf* MbufPool::alloc(bool pkthdr) noexcept {
  Mbuf* m = mbufs_.take();
  if (m == nullptr) {
    ++stats_.alloc_failures;
    return nullptr;
  }
  m->next_ = nullptr;
  m->nextpkt_ = nullptr;
  m->len_ = 0;
  m->pkt_len_ = 0;
  m->pkthdr_ = pkthdr;
  m->cluster_ = nullptr;
  m->pool_ = this;
  m->center_window();
  ++stats_.mbuf_allocs;
  return m;
}

bool MbufPool::add_cluster(Mbuf& m) noexcept {
  LDLP_DASSERT(m.len_ == 0 && m.cluster_ == nullptr);
  Cluster* c = clusters_.take();
  if (c == nullptr) {
    ++stats_.alloc_failures;
    return false;
  }
  c->refs = 1;
  m.cluster_ = c;
  m.center_window();
  ++stats_.cluster_allocs;
  return true;
}

void MbufPool::share_cluster(const Mbuf& from, Mbuf& to) noexcept {
  LDLP_DASSERT(from.cluster_ != nullptr);
  LDLP_DASSERT(to.cluster_ == nullptr && to.len_ == 0);
  ++from.cluster_->refs;
  to.cluster_ = from.cluster_;
  to.data_ = from.data_;
  to.len_ = from.len_;
}

void MbufPool::release_cluster(Cluster* c) noexcept {
  LDLP_DASSERT(c->refs > 0);
  if (--c->refs == 0) {
    clusters_.give(c);
    ++stats_.cluster_frees;
  }
}

Mbuf* MbufPool::free_one(Mbuf* m) noexcept {
  LDLP_DASSERT(m != nullptr && m->pool_ == this);
  Mbuf* next = m->next_;
  if (m->cluster_ != nullptr) {
    release_cluster(m->cluster_);
    m->cluster_ = nullptr;
  }
  m->next_ = nullptr;
  m->nextpkt_ = nullptr;
  m->pool_ = nullptr;
  mbufs_.give(m);
  ++stats_.mbuf_frees;
  return next;
}

void MbufPool::free_chain(Mbuf* m) noexcept {
  while (m != nullptr) m = free_one(m);
}

}  // namespace ldlp::buf
