#include <gtest/gtest.h>

#include "gas/block_store.hpp"
#include "gas/gheap.hpp"
#include "sim/fabric.hpp"
#include "util/rng.hpp"

namespace nvgas::gas {
namespace {

TEST(BlockStore, AllocatesDistinctRegions) {
  BlockStore store(1 << 20);
  const auto a = store.allocate(4096);
  const auto b = store.allocate(4096);
  EXPECT_NE(a, b);
  EXPECT_GE(store.bytes_in_use(), 8192u);
}

TEST(BlockStore, ReusesFreedBlocks) {
  BlockStore store(1 << 20);
  const auto a = store.allocate(1024);
  store.release(a, 1024);
  const auto b = store.allocate(1024);
  EXPECT_EQ(a, b);  // same size class, LIFO reuse
}

TEST(BlockStore, RoundsUpToPowerOfTwo) {
  BlockStore store(1 << 20);
  const auto a = store.allocate(100);  // -> 128
  (void)a;
  EXPECT_EQ(store.bytes_in_use(), 128u);
  const auto b = store.allocate(129);  // -> 256
  (void)b;
  EXPECT_EQ(store.bytes_in_use(), 128u + 256u);
}

TEST(BlockStore, MinimumGranularity) {
  BlockStore store(1 << 20);
  (void)store.allocate(1);
  EXPECT_EQ(store.bytes_in_use(), BlockStore::kMinBlock);
}

TEST(BlockStore, ExhaustionFailsGracefully) {
  BlockStore store(4096);
  sim::Lva lva = 0;
  EXPECT_TRUE(store.try_allocate(4096, &lva));
  EXPECT_FALSE(store.try_allocate(64, &lva));
  EXPECT_DEATH((void)store.allocate(64), "exhausted");
}

TEST(BlockStore, ChurnStaysBounded) {
  BlockStore store(1 << 16);
  util::Rng rng(11);
  std::vector<std::pair<sim::Lva, std::size_t>> live;
  for (int i = 0; i < 5000; ++i) {
    if (live.size() < 8 && rng.chance(0.6)) {
      const std::size_t size = 64ull << rng.below(6);
      sim::Lva lva = 0;
      ASSERT_TRUE(store.try_allocate(size, &lva));
      live.emplace_back(lva, size);
    } else if (!live.empty()) {
      const auto idx = rng.below(live.size());
      store.release(live[idx].first, live[idx].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  // The high-water mark must stay far below naive 5000 * max-size.
  EXPECT_LE(store.high_water(), 1u << 16);
}

struct HeapFixture : ::testing::Test {
  HeapFixture() : fabric(params()), heap(fabric) {}
  static sim::MachineParams params() {
    sim::MachineParams p;
    p.nodes = 4;
    p.mem_bytes_per_node = 1 << 20;
    return p;
  }
  sim::Fabric fabric;
  GlobalHeap heap;
};

TEST_F(HeapFixture, CyclicAllocationPlacesBlocksRoundRobin) {
  const Gva base = heap.alloc(Dist::kCyclic, 1, 8, 4096);
  EXPECT_EQ(base.creator(), 1);
  for (std::uint32_t b = 0; b < 8; ++b) {
    const Gva block = base.advanced(static_cast<std::int64_t>(b) * 4096, 4096);
    EXPECT_EQ(heap.home_of(block), static_cast<int>((1 + b) % 4));
    (void)heap.initial_lva(block.block_base());  // must exist
  }
}

TEST_F(HeapFixture, MetaRecordsParameters) {
  const Gva base = heap.alloc(Dist::kCyclic, 0, 16, 1024);
  const AllocMeta& m = heap.meta_of(base);
  EXPECT_EQ(m.nblocks, 16u);
  EXPECT_EQ(m.block_size, 1024u);
  EXPECT_EQ(m.total_bytes(), 16u * 1024u);
}

TEST_F(HeapFixture, ContainsChecksBounds) {
  const Gva base = heap.alloc(Dist::kCyclic, 0, 4, 256);
  EXPECT_TRUE(heap.contains(base));
  EXPECT_TRUE(heap.contains(base.advanced(4 * 256 - 1, 256)));
  EXPECT_FALSE(heap.contains(Gva::make(Dist::kCyclic, 0, base.alloc_id(), 4, 0)));
  EXPECT_FALSE(heap.contains(Gva::make(Dist::kCyclic, 0, 999, 0, 0)));
}

TEST_F(HeapFixture, ExtentCheckRejectsBlockCrossing) {
  const Gva base = heap.alloc(Dist::kCyclic, 0, 4, 256);
  heap.check_extent(base, 256);  // exactly one block: fine
  EXPECT_DEATH(heap.check_extent(base.advanced(200, 256), 100), "boundary");
}

TEST_F(HeapFixture, DistinctAllocationsGetDistinctIds) {
  const Gva a = heap.alloc(Dist::kCyclic, 0, 2, 64);
  const Gva b = heap.alloc(Dist::kCyclic, 0, 2, 64);
  EXPECT_NE(a.alloc_id(), b.alloc_id());
}

TEST_F(HeapFixture, LocalAllocationStaysOnCreator) {
  const Gva base = heap.alloc(Dist::kLocal, 2, 4, 512);
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_EQ(heap.home_of(base.advanced(static_cast<std::int64_t>(b) * 512, 512)), 2);
  }
}

TEST_F(HeapFixture, ReleaseMetaForgetsAllocation) {
  const Gva base = heap.alloc(Dist::kCyclic, 0, 2, 64);
  heap.release_meta(base.alloc_id());
  EXPECT_FALSE(heap.contains(base));
  EXPECT_DEATH((void)heap.meta_of(base), "unknown");
}

TEST_F(HeapFixture, AllocationIdsAreNeverReused) {
  const Gva a = heap.alloc(Dist::kCyclic, 0, 2, 64);
  heap.release_meta(a.alloc_id());
  const Gva b = heap.alloc(Dist::kCyclic, 0, 2, 64);
  EXPECT_EQ(b.alloc_id(), a.alloc_id() + 1);
  EXPECT_FALSE(heap.contains(a));
  EXPECT_TRUE(heap.contains(b));
}

TEST_F(HeapFixture, ReleasedIdIsRejected) {
  const Gva base = heap.alloc(Dist::kCyclic, 0, 2, 64);
  const Gva other = heap.alloc(Dist::kCyclic, 0, 2, 64);
  heap.release_meta(base.alloc_id());
  EXPECT_FALSE(heap.contains(base));
  EXPECT_FALSE(heap.contains(base.advanced(64, 64)));
  EXPECT_DEATH((void)heap.meta(base.alloc_id()), "unknown allocation id");
  EXPECT_DEATH(heap.release_meta(base.alloc_id()),
               "release of unknown allocation");
  EXPECT_DEATH(heap.release_meta(other.alloc_id() + 1),
               "release of unknown allocation");
  EXPECT_EQ(heap.meta(other.alloc_id()).nblocks, 2u);
}

TEST_F(HeapFixture, InitialLvaOfReleasedAllocationAborts) {
  const Gva base = heap.alloc(Dist::kCyclic, 0, 2, 64);
  (void)heap.initial_lva(base);
  heap.release_meta(base.alloc_id());
  EXPECT_DEATH((void)heap.initial_lva(base), "no initial placement");
}

TEST_F(HeapFixture, MetaReferenceSurvivesLaterAllocations) {
  const Gva base = heap.alloc(Dist::kLocal, 3, 5, 128);
  const AllocMeta& m = heap.meta_of(base);
  for (int i = 0; i < 100; ++i) (void)heap.alloc(Dist::kCyclic, i % 4, 1, 64);
  EXPECT_EQ(m.id, base.alloc_id());
  EXPECT_EQ(m.dist, Dist::kLocal);
  EXPECT_EQ(m.creator, 3);
  EXPECT_EQ(m.nblocks, 5u);
  EXPECT_EQ(m.block_size, 128u);
  EXPECT_EQ(&m, &heap.meta_of(base));
}

}  // namespace
}  // namespace nvgas::gas
