// Unit tests for the machine model: cache geometry, hit/miss behaviour,
// associativity, memory-system penalties and address-space placement.
// Includes parameterized sweeps over cache geometries.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/address_space.hpp"
#include "sim/memory_system.hpp"

namespace ldlp::sim {
namespace {

TEST(CacheConfig, ValidityRules) {
  EXPECT_TRUE((CacheConfig{8192, 32, 1}.valid()));
  EXPECT_TRUE((CacheConfig{8192, 32, 4}.valid()));
  EXPECT_FALSE((CacheConfig{8192, 33, 1}.valid()));  // non power of two
  EXPECT_FALSE((CacheConfig{0, 32, 1}.valid()));
  EXPECT_FALSE((CacheConfig{16, 32, 1}.valid()));  // line larger than cache
}

TEST(Cache, ColdMissThenHit) {
  Cache cache(CacheConfig{8192, 32, 1});
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x101f));  // same 32-byte line
  EXPECT_FALSE(cache.access(0x1020)); // next line
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(Cache, DirectMappedConflict) {
  Cache cache(CacheConfig{8192, 32, 1});
  // Two addresses 8 KB apart map to the same set and evict each other.
  EXPECT_FALSE(cache.access(0x0));
  EXPECT_FALSE(cache.access(0x2000));
  EXPECT_FALSE(cache.access(0x0));
  EXPECT_FALSE(cache.access(0x2000));
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Cache, TwoWayResolvesPairConflict) {
  Cache cache(CacheConfig{8192, 32, 2});
  EXPECT_FALSE(cache.access(0x0));
  EXPECT_FALSE(cache.access(0x2000));
  EXPECT_TRUE(cache.access(0x0));
  EXPECT_TRUE(cache.access(0x2000));
}

TEST(Cache, LruEvictsOldest) {
  // 2-way, and three lines mapping to the same set: A, B, C.
  Cache cache(CacheConfig{8192, 32, 2});
  const std::uint64_t a = 0x0;
  const std::uint64_t b = 0x1000;  // 4 KB apart = same set in 2-way 8 KB
  const std::uint64_t c = 0x2000;
  EXPECT_FALSE(cache.access(a));
  EXPECT_FALSE(cache.access(b));
  EXPECT_TRUE(cache.access(a));   // A more recent than B
  EXPECT_FALSE(cache.access(c));  // evicts B (LRU)
  EXPECT_TRUE(cache.access(a));
  EXPECT_FALSE(cache.access(b));
}

TEST(Cache, AccessRangeCountsLines) {
  Cache cache(CacheConfig{8192, 32, 1});
  EXPECT_EQ(cache.access_range(0x100, 64), 2u);   // exactly two lines
  EXPECT_EQ(cache.access_range(0x100, 64), 0u);   // now resident
  EXPECT_EQ(cache.access_range(0x13f, 2), 1u);    // straddles into a new line
  EXPECT_EQ(cache.access_range(0x200, 0), 0u);    // empty range
  EXPECT_EQ(cache.access_range(0x205, 1), 1u);    // sub-line range
}

TEST(Cache, FlushColdsEverything) {
  Cache cache(CacheConfig{8192, 32, 1});
  (void)cache.access_range(0, 4096);
  EXPECT_EQ(cache.resident_lines(), 128u);
  cache.flush();
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_FALSE(cache.access(0));
}

TEST(Cache, ContainsDoesNotTouchStats) {
  Cache cache(CacheConfig{8192, 32, 1});
  (void)cache.access(0x40);
  const auto misses = cache.stats().misses;
  EXPECT_TRUE(cache.contains(0x40));
  EXPECT_FALSE(cache.contains(0x80));
  EXPECT_EQ(cache.stats().misses, misses);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  // The paper's core observation: a 30 KB working set through an 8 KB
  // cache misses on (nearly) every line, every iteration.
  Cache cache(CacheConfig{8192, 32, 1});
  for (int iteration = 0; iteration < 3; ++iteration) {
    const auto misses = cache.stats().misses;
    (void)cache.access_range(0, 30 * 1024);
    EXPECT_EQ(cache.stats().misses - misses, 30u * 1024 / 32);
  }
}

TEST(Cache, WorkingSetSmallerThanCacheStaysResident) {
  Cache cache(CacheConfig{8192, 32, 1});
  (void)cache.access_range(0, 6 * 1024);
  const auto misses = cache.stats().misses;
  for (int i = 0; i < 5; ++i) (void)cache.access_range(0, 6 * 1024);
  EXPECT_EQ(cache.stats().misses, misses);
}

/// Parameterized geometry sweep: total cold misses over a region must
/// equal region/line for every valid geometry.
class CacheGeometry : public ::testing::TestWithParam<
                          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> {};

TEST_P(CacheGeometry, ColdMissesEqualLineCount) {
  const auto [size, line, ways] = GetParam();
  Cache cache(CacheConfig{size, line, ways});
  const std::uint64_t region = size;  // exactly fills the cache
  (void)cache.access_range(0, region);
  EXPECT_EQ(cache.stats().misses, region / line);
  // Re-walk: everything resident regardless of associativity.
  (void)cache.access_range(0, region);
  EXPECT_EQ(cache.stats().misses, region / line);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(4096u, 8192u, 65536u),
                       ::testing::Values(16u, 32u, 64u),
                       ::testing::Values(1u, 2u, 4u)));

TEST(MemorySystem, PenaltyPerMiss) {
  MemoryConfig cfg;
  cfg.miss_penalty_cycles = 20;
  MemorySystem mem(cfg);
  EXPECT_EQ(mem.access(Access::kIFetch, 0, 64), 40u);  // two lines
  EXPECT_EQ(mem.access(Access::kIFetch, 0, 64), 0u);
  EXPECT_EQ(mem.total_stall_cycles(), 40u);
}

TEST(MemorySystem, SplitCachesAreIndependent) {
  MemorySystem mem(MemoryConfig{});
  (void)mem.access(Access::kIFetch, 0x1000, 32);
  // The same address through the D-cache still misses: split caches.
  EXPECT_GT(mem.access(Access::kRead, 0x1000, 32), 0u);
}

TEST(MemorySystem, UnifiedCacheShares) {
  MemoryConfig cfg;
  cfg.unified = true;
  MemorySystem mem(cfg);
  (void)mem.access(Access::kIFetch, 0x1000, 32);
  EXPECT_EQ(mem.access(Access::kRead, 0x1000, 32), 0u);
}

TEST(MemorySystem, WritesAllocate) {
  MemorySystem mem(MemoryConfig{});
  EXPECT_GT(mem.access(Access::kWrite, 0x500, 32), 0u);
  EXPECT_EQ(mem.access(Access::kRead, 0x500, 32), 0u);
}

TEST(MemorySystem, L2AbsorbsPrimaryMisses) {
  MemoryConfig cfg;
  cfg.l2 = CacheConfig{512 * 1024, 32, 1};
  cfg.l2_hit_cycles = 6;
  cfg.miss_penalty_cycles = 20;
  MemorySystem mem(cfg);
  // Cold: L1 and L2 both miss -> full memory penalty.
  EXPECT_EQ(mem.access(Access::kIFetch, 0, 32), 20u);
  // Evict from L1 (8 KB conflict) but not from the big L2.
  (void)mem.access(Access::kIFetch, 0x2000, 32);
  // L1 miss, L2 hit -> short stall.
  EXPECT_EQ(mem.access(Access::kIFetch, 0, 32), 6u);
}

TEST(MemorySystem, L2SharedBetweenInstructionAndData) {
  MemoryConfig cfg;
  cfg.l2 = CacheConfig{512 * 1024, 32, 1};
  MemorySystem mem(cfg);
  (void)mem.access(Access::kIFetch, 0x4000, 32);  // fills L2
  // Data access to the same line: misses D-cache, hits unified L2.
  EXPECT_EQ(mem.access(Access::kRead, 0x4000, 32), cfg.l2_hit_cycles);
}

TEST(MemorySystem, TlbChargesPageWalks) {
  MemoryConfig cfg;
  cfg.tlb_enabled = true;
  cfg.tlb_entries = 4;
  cfg.tlb_page_bytes = 8192;
  cfg.tlb_miss_cycles = 30;
  MemorySystem mem(cfg);
  // First touch of a page: TLB miss (30) + cache miss (20).
  EXPECT_EQ(mem.access(Access::kRead, 0, 8), 50u);
  // Same page, different line: TLB hit, cache miss only.
  EXPECT_EQ(mem.access(Access::kRead, 64, 8), 20u);
  // Walk five pages through a 4-entry TLB twice: capacity misses repeat.
  for (int round = 0; round < 2; ++round) {
    std::uint64_t tlb_misses0 = mem.tlb_misses();
    for (std::uint64_t page = 1; page <= 5; ++page)
      (void)mem.access(Access::kRead, page * 8192, 8);
    EXPECT_GE(mem.tlb_misses() - tlb_misses0, 4u) << "round " << round;
  }
}

TEST(MemorySystem, TlbSpanningAccessTouchesBothPages) {
  MemoryConfig cfg;
  cfg.tlb_enabled = true;
  MemorySystem mem(cfg);
  const std::uint64_t stall = mem.access(Access::kRead, 8192 - 16, 32);
  // Two TLB misses + two cache-line misses.
  EXPECT_EQ(stall, 2u * 30 + 2u * 20);
}

TEST(AddressSpace, NoOverlaps) {
  AddressSpace space(1 << 20, 32);
  Rng rng(55);
  for (int i = 0; i < 100; ++i)
    (void)space.allocate("r" + std::to_string(i), 1024, rng);
  const auto& regions = space.regions();
  for (std::size_t i = 0; i < regions.size(); ++i) {
    EXPECT_EQ(regions[i].base % 32, 0u);
    for (std::size_t j = i + 1; j < regions.size(); ++j)
      EXPECT_FALSE(regions[i].overlaps(regions[j]))
          << regions[i].name << " vs " << regions[j].name;
  }
}

TEST(AddressSpace, SequentialPacksFromZero) {
  AddressSpace space(1 << 16, 32);
  const Region a = space.allocate_sequential("a", 100);
  const Region b = space.allocate_sequential("b", 100);
  EXPECT_EQ(a.base, 0u);
  EXPECT_GE(b.base, a.end());
  EXPECT_EQ(b.base % 32, 0u);
}

TEST(AddressSpace, RandomPlacementVariesWithSeed) {
  AddressSpace s1(1 << 24, 32);
  AddressSpace s2(1 << 24, 32);
  Rng r1(1);
  Rng r2(2);
  const Region a = s1.allocate("x", 4096, r1);
  const Region b = s2.allocate("x", 4096, r2);
  EXPECT_NE(a.base, b.base);
}

}  // namespace
}  // namespace ldlp::sim
