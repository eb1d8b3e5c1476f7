// Unit and property tests for the mbuf system: pool lifecycle, cluster
// sharing, and every chain operation (prepend/append/adj/pullup/copy/
// split/cat), including a randomized operation-sequence invariant sweep.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

#include "buf/packet.hpp"
#include "buf/packet_queue.hpp"
#include "common/rng.hpp"

namespace ldlp::buf {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 0) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(seed + i);
  return out;
}

std::vector<std::uint8_t> contents(const Packet& pkt) {
  std::vector<std::uint8_t> out(pkt.length());
  EXPECT_TRUE(pkt.copy_out(0, out));
  return out;
}

TEST(Pool, AllocFreeCycle) {
  MbufPool pool(4, 2);
  Mbuf* m = pool.alloc(true);
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->is_pkthdr());
  EXPECT_EQ(m->len(), 0u);
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 1u);
  pool.free_one(m);
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);
}

TEST(Pool, ExhaustionReturnsNull) {
  MbufPool pool(2, 1);
  Mbuf* a = pool.alloc();
  Mbuf* b = pool.alloc();
  EXPECT_EQ(pool.alloc(), nullptr);
  EXPECT_EQ(pool.stats().alloc_failures, 1u);
  pool.free_one(a);
  pool.free_one(b);
}

TEST(Pool, ClusterSharingRefcounts) {
  MbufPool pool(4, 2);
  Mbuf* a = pool.alloc();
  ASSERT_TRUE(pool.add_cluster(*a));
  a->grow_back(100);
  Mbuf* b = pool.alloc();
  pool.share_cluster(*a, *b);
  EXPECT_EQ(b->len(), 100u);
  EXPECT_EQ(b->data(), a->data());
  EXPECT_EQ(pool.clusters_free(), 1u);
  pool.free_one(a);
  EXPECT_EQ(pool.clusters_free(), 1u);  // still referenced by b
  pool.free_one(b);
  EXPECT_EQ(pool.clusters_free(), 2u);
}

/// Reference for the lazy slabs: a LIFO free list filled with every slot
/// up front, lowest index on top.
struct EagerFreeList {
  std::vector<std::size_t> free;
  explicit EagerFreeList(std::size_t n) {
    for (std::size_t i = n; i-- > 0;) free.push_back(i);
  }
  std::optional<std::size_t> take() {
    if (free.empty()) return std::nullopt;
    const std::size_t slot = free.back();
    free.pop_back();
    return slot;
  }
};

TEST(Pool, LazySlabsHandOutInEagerOrder) {
  constexpr std::size_t kMbufs = 48;
  constexpr std::size_t kClusters = 12;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    MbufPool pool(kMbufs, kClusters);
    EagerFreeList mbuf_ref(kMbufs);
    EagerFreeList cluster_ref(kClusters);
    // Slot 0 is the first ever handed out, so its address anchors the
    // index of every later one.
    const Mbuf* mbuf_base = nullptr;
    const std::uint8_t* cluster_base = nullptr;
    struct Held {
      Mbuf* m;
      std::size_t slot;
      std::optional<std::size_t> cluster;
    };
    std::vector<Held> held;
    Rng rng(seed);
    for (int step = 0; step < 2000; ++step) {
      if (held.empty() || rng.chance(0.55)) {
        Mbuf* m = pool.alloc();
        const auto slot = mbuf_ref.take();
        ASSERT_EQ(m != nullptr, slot.has_value()) << "step " << step;
        if (m == nullptr) continue;
        if (mbuf_base == nullptr) mbuf_base = m;
        ASSERT_EQ(static_cast<std::size_t>(m - mbuf_base), *slot)
            << "step " << step;
        Held h{m, *slot, std::nullopt};
        if (rng.chance(0.5)) {
          const bool got = pool.add_cluster(*m);
          h.cluster = cluster_ref.take();
          ASSERT_EQ(got, h.cluster.has_value()) << "step " << step;
          if (got) {
            if (cluster_base == nullptr) cluster_base = m->buffer_start();
            const auto offset =
                static_cast<std::size_t>(m->buffer_start() - cluster_base);
            ASSERT_EQ(offset % sizeof(Cluster), 0u);
            ASSERT_EQ(offset / sizeof(Cluster), *h.cluster) << "step " << step;
          }
        }
        held.push_back(h);
      } else {
        const std::size_t i = rng.bounded(held.size());
        pool.free_one(held[i].m);
        mbuf_ref.free.push_back(held[i].slot);
        if (held[i].cluster) cluster_ref.free.push_back(*held[i].cluster);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      }
      ASSERT_EQ(pool.mbufs_free(), mbuf_ref.free.size()) << "step " << step;
      ASSERT_EQ(pool.clusters_free(), cluster_ref.free.size())
          << "step " << step;
    }
    for (const Held& h : held) pool.free_one(h.m);
    EXPECT_EQ(pool.mbufs_free(), kMbufs);
    EXPECT_EQ(pool.clusters_free(), kClusters);
  }
}

TEST(Packet, FromBytesRoundTrip) {
  MbufPool pool(64, 16);
  {
    const auto payload = pattern(5000);  // forces a multi-mbuf chain
    Packet pkt = Packet::from_bytes(pool, payload);
    ASSERT_TRUE(pkt);
    EXPECT_EQ(pkt.length(), 5000u);
    EXPECT_GT(pkt.chain_count(), 1u);
    EXPECT_EQ(contents(pkt), payload);
    EXPECT_EQ(pkt.head()->pkt_len(), 5000u);
  }
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);  // RAII released all
}

TEST(Packet, PrependWithinHeadroom) {
  MbufPool pool(8, 4);
  Packet pkt = Packet::from_bytes(pool, pattern(10));
  const std::uint32_t chains = pkt.chain_count();
  std::uint8_t* front = pkt.prepend(8);
  ASSERT_NE(front, nullptr);
  std::fill_n(front, 8, 0xaa);
  EXPECT_EQ(pkt.length(), 18u);
  EXPECT_EQ(pkt.chain_count(), chains);  // no new mbuf needed
  EXPECT_EQ(contents(pkt)[0], 0xaa);
  EXPECT_EQ(contents(pkt)[8], 0);
}

TEST(Packet, PrependAllocatesWhenNoHeadroom) {
  MbufPool pool(8, 4);
  Packet pkt = Packet::make(pool);
  ASSERT_TRUE(pkt);
  // Exhaust the head mbuf's leading space.
  while (pkt.head()->leading_space() > 0) pkt.head()->grow_front(1);
  const std::uint32_t before = pkt.chain_count();
  EXPECT_NE(pkt.prepend(16), nullptr);
  EXPECT_EQ(pkt.chain_count(), before + 1);
}

TEST(Packet, AdjFrontAndBack) {
  MbufPool pool(64, 16);
  Packet pkt = Packet::from_bytes(pool, pattern(1000));
  pkt.adj(100);  // strip header-like prefix
  EXPECT_EQ(pkt.length(), 900u);
  EXPECT_EQ(contents(pkt)[0], pattern(1000)[100]);
  pkt.adj(-200);  // trim trailer
  EXPECT_EQ(pkt.length(), 700u);
  EXPECT_EQ(contents(pkt).back(), pattern(1000)[799]);
  EXPECT_EQ(pkt.head()->pkt_len(), 700u);
}

TEST(Packet, AdjAcrossMbufBoundaries) {
  MbufPool pool(64, 16);
  Packet pkt = Packet::from_bytes(pool, pattern(4000));
  pkt.adj(2100);  // removes whole interior mbufs
  EXPECT_EQ(pkt.length(), 1900u);
  EXPECT_EQ(contents(pkt)[0], pattern(4000)[2100]);
}

TEST(Packet, PullupMakesContiguous) {
  MbufPool pool(64, 16);
  // Build a fragmented chain via cat of small pieces.
  Packet pkt = Packet::from_bytes(pool, pattern(40));
  Packet tail = Packet::from_bytes(pool, pattern(40, 40));
  pkt.cat(std::move(tail));
  ASSERT_GE(pkt.chain_count(), 2u);
  const std::uint8_t* base = pkt.pullup(60);
  ASSERT_NE(base, nullptr);
  EXPECT_GE(pkt.head()->len(), 60u);
  for (int i = 0; i < 60; ++i)
    EXPECT_EQ(base[i], static_cast<std::uint8_t>(i));
  EXPECT_EQ(pkt.length(), 80u);
}

TEST(Packet, PullupFailsWhenTooShort) {
  MbufPool pool(8, 4);
  Packet pkt = Packet::from_bytes(pool, pattern(10));
  EXPECT_EQ(pkt.pullup(11), nullptr);
  EXPECT_EQ(pkt.length(), 10u);  // untouched on failure
}

TEST(Packet, CopyInOutAtOffsets) {
  MbufPool pool(64, 16);
  Packet pkt = Packet::from_bytes(pool, pattern(3000));
  std::uint8_t window[64];
  ASSERT_TRUE(pkt.copy_out(2900, window));
  EXPECT_EQ(window[0], pattern(3000)[2900]);

  const auto patch = pattern(64, 0x80);
  ASSERT_TRUE(pkt.copy_in(1500, patch));
  std::uint8_t check[64];
  ASSERT_TRUE(pkt.copy_out(1500, check));
  EXPECT_EQ(check[10], patch[10]);

  std::uint8_t over[8];
  EXPECT_FALSE(pkt.copy_out(2998, over));  // 2998+8 > 3000
}

TEST(Packet, SplitAtOffsets) {
  MbufPool pool(64, 16);
  for (std::uint32_t at : {0u, 1u, 552u, 2048u, 2999u, 3000u}) {
    Packet pkt = Packet::from_bytes(pool, pattern(3000));
    Packet rest = pkt.split(at);
    ASSERT_TRUE(rest || at == 3000) << "at=" << at;
    EXPECT_EQ(pkt.length(), at);
    EXPECT_EQ(rest.length(), 3000u - at);
    const auto left = contents(pkt);
    const auto right = contents(rest);
    const auto whole = pattern(3000);
    EXPECT_TRUE(std::equal(left.begin(), left.end(), whole.begin()));
    EXPECT_TRUE(
        std::equal(right.begin(), right.end(), whole.begin() + at));
  }
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);
}

TEST(Packet, CatPreservesBytes) {
  MbufPool pool(64, 16);
  Packet a = Packet::from_bytes(pool, pattern(100));
  Packet b = Packet::from_bytes(pool, pattern(100, 100));
  a.cat(std::move(b));
  EXPECT_EQ(a.length(), 200u);
  EXPECT_EQ(contents(a), pattern(200));
}

TEST(Packet, TryViewContiguousOnly) {
  MbufPool pool(64, 16);
  Packet pkt = Packet::from_bytes(pool, pattern(100));
  const auto view = pkt.try_view(10, 20);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ((*view)[0], 10);
  // A view spanning a chain boundary is refused.
  Packet tail = Packet::from_bytes(pool, pattern(100));
  pkt.cat(std::move(tail));
  EXPECT_FALSE(pkt.try_view(95, 20).has_value());
}

TEST(Packet, MoveSemantics) {
  MbufPool pool(8, 4);
  Packet a = Packet::from_bytes(pool, pattern(10));
  Packet b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.length(), 10u);
  a = std::move(b);
  EXPECT_EQ(a.length(), 10u);
}

TEST(PacketQueue, FifoAndDropWhenFull) {
  MbufPool pool(16, 4);
  PacketQueue queue(2);
  EXPECT_TRUE(queue.push(Packet::from_bytes(pool, pattern(1))));
  EXPECT_TRUE(queue.push(Packet::from_bytes(pool, pattern(2))));
  EXPECT_FALSE(queue.push(Packet::from_bytes(pool, pattern(3))));
  EXPECT_EQ(queue.drops(), 1u);
  EXPECT_EQ(queue.pop().length(), 1u);
  EXPECT_EQ(queue.pop().length(), 2u);
  EXPECT_TRUE(queue.pop().empty());
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);
}

/// Property sweep: random op sequences preserve the byte-level model.
class PacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzz, MatchesVectorModel) {
  Rng rng(GetParam());
  MbufPool pool(512, 128);
  {
    std::vector<std::uint8_t> model = pattern(300);
    Packet pkt = Packet::from_bytes(pool, model);
    for (int op = 0; op < 60; ++op) {
      switch (rng.bounded(5)) {
        case 0: {  // append
          const auto extra =
              pattern(rng.bounded(400) + 1, static_cast<std::uint8_t>(op));
          ASSERT_TRUE(pkt.append(extra));
          model.insert(model.end(), extra.begin(), extra.end());
          break;
        }
        case 1: {  // adj front
          if (model.empty()) break;
          const auto n = rng.bounded(model.size()) + 1;
          pkt.adj(static_cast<std::int32_t>(n));
          model.erase(model.begin(), model.begin() + static_cast<long>(n));
          break;
        }
        case 2: {  // adj back
          if (model.empty()) break;
          const auto n = rng.bounded(model.size()) + 1;
          pkt.adj(-static_cast<std::int32_t>(n));
          model.resize(model.size() - n);
          break;
        }
        case 3: {  // split and re-cat (identity on contents)
          const auto at = rng.bounded(model.size() + 1);
          Packet rest = pkt.split(static_cast<std::uint32_t>(at));
          pkt.cat(std::move(rest));
          break;
        }
        case 4: {  // pullup a prefix
          if (model.empty()) break;
          const auto n = std::min<std::uint64_t>(
              rng.bounded(model.size()) + 1, 100);
          (void)pkt.pullup(static_cast<std::uint32_t>(n));
          break;
        }
      }
      ASSERT_EQ(pkt.length(), model.size()) << "op " << op;
      ASSERT_EQ(contents(pkt), model) << "op " << op;
    }
  }
  EXPECT_EQ(pool.stats().mbufs_outstanding(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace ldlp::buf
