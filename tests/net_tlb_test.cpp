#include "net/nic_tlb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "reference_nic_tlb.hpp"
#include "util/rng.hpp"

namespace nvgas::net {
namespace {

TlbEntry entry(int owner, sim::Lva base = 0, std::uint32_t gen = 0,
               bool pinned = false) {
  TlbEntry e;
  e.owner = owner;
  e.base = base;
  e.generation = gen;
  e.pinned = pinned;
  return e;
}

TEST(NicTlb, InsertLookup) {
  NicTlb tlb(8);
  tlb.insert(42, entry(3, 0x1000, 7));
  auto e = tlb.lookup(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->owner, 3);
  EXPECT_EQ(e->base, 0x1000u);
  EXPECT_EQ(e->generation, 7u);
  EXPECT_EQ(tlb.hits(), 1u);
}

TEST(NicTlb, MissCounted) {
  NicTlb tlb(8);
  EXPECT_FALSE(tlb.lookup(1).has_value());
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(NicTlb, OverwriteUpdates) {
  NicTlb tlb(8);
  tlb.insert(5, entry(1));
  tlb.insert(5, entry(2, 0x20, 1));
  EXPECT_EQ(tlb.size(), 1u);
  auto e = tlb.lookup(5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->owner, 2);
  EXPECT_EQ(e->generation, 1u);
}

TEST(NicTlb, UpdateNeverReplacesPinnedOrNewerEntries) {
  NicTlb tlb(8);
  EXPECT_TRUE(tlb.update(1, entry(4, 0x10, 2)));  // absent: installed
  EXPECT_TRUE(tlb.update(1, entry(5, 0x20, 2)));  // same generation
  EXPECT_FALSE(tlb.update(1, entry(6, 0x30, 1)));  // older: refused
  EXPECT_EQ(tlb.peek(1)->owner, 5);
  EXPECT_TRUE(tlb.update(1, entry(7, 0x40, 3)));  // newer
  EXPECT_EQ(tlb.peek(1)->owner, 7);

  tlb.insert(2, entry(2, 0x50, 1, /*pinned=*/true));
  EXPECT_FALSE(tlb.update(2, entry(0, 0x60, 4)));  // pinned: refused
  const TlbEntry* held = tlb.peek(2);
  EXPECT_TRUE(held->pinned);
  EXPECT_EQ(held->owner, 2);
  EXPECT_EQ(held->generation, 1u);
}

TEST(NicTlb, LruEvictsColdestEntry) {
  NicTlb tlb(3);
  tlb.insert(1, entry(1));
  tlb.insert(2, entry(2));
  tlb.insert(3, entry(3));
  // Touch 1 so 2 becomes coldest.
  (void)tlb.lookup(1);
  tlb.insert(4, entry(4));
  EXPECT_EQ(tlb.size(), 3u);
  EXPECT_TRUE(tlb.lookup(1).has_value());
  EXPECT_FALSE(tlb.lookup(2).has_value());
  EXPECT_TRUE(tlb.lookup(3).has_value());
  EXPECT_TRUE(tlb.lookup(4).has_value());
  EXPECT_EQ(tlb.evictions(), 1u);
}

TEST(NicTlb, PinnedEntriesSurviveEvictionPressure) {
  NicTlb tlb(2);
  tlb.insert(10, entry(0, 0, 0, /*pinned=*/true));
  tlb.insert(11, entry(1));
  tlb.insert(12, entry(2));
  tlb.insert(13, entry(3));  // evicts 11, not the pinned 10
  EXPECT_TRUE(tlb.lookup(10).has_value());
  EXPECT_FALSE(tlb.lookup(11).has_value());
  EXPECT_TRUE(tlb.lookup(12).has_value());
  EXPECT_TRUE(tlb.lookup(13).has_value());
}

TEST(NicTlb, PinnedEntriesDoNotConsumeCacheCapacity) {
  // The directory region is separate: many pinned entries coexist with a
  // full cache of unpinned ones.
  NicTlb tlb(2);
  for (std::uint64_t k = 100; k < 110; ++k) {
    tlb.insert(k, entry(0, 0, 0, true));
  }
  tlb.insert(1, entry(1));
  tlb.insert(2, entry(2));
  tlb.insert(3, entry(3));  // evicts 1
  EXPECT_EQ(tlb.size(), 12u);
  EXPECT_FALSE(tlb.lookup(1).has_value());
  for (std::uint64_t k = 100; k < 110; ++k) {
    EXPECT_TRUE(tlb.lookup(k).has_value());
  }
}

TEST(NicTlb, PinTransitionMaintainsBookkeeping) {
  NicTlb tlb(4);
  tlb.insert(1, entry(0));               // unpinned
  tlb.insert(1, entry(0, 0, 1, true));   // now pinned
  tlb.insert(2, entry(1));
  tlb.insert(3, entry(2));
  tlb.insert(4, entry(3));
  tlb.insert(5, entry(4));               // evicts an unpinned entry
  EXPECT_TRUE(tlb.lookup(1).has_value());
  // Unpin again.
  tlb.insert(1, entry(0, 0, 2, false));
  auto e = tlb.lookup(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->pinned);
}

TEST(NicTlb, FindGivesMutableAccess) {
  NicTlb tlb(4);
  tlb.insert(7, entry(1, 0, 0));
  TlbEntry* e = tlb.find(7);
  ASSERT_NE(e, nullptr);
  e->in_flight = true;
  e->generation = 9;
  auto seen = tlb.lookup(7);
  ASSERT_TRUE(seen.has_value());
  EXPECT_TRUE(seen->in_flight);
  EXPECT_EQ(seen->generation, 9u);
  EXPECT_EQ(tlb.find(999), nullptr);
}

TEST(NicTlb, EraseRemoves) {
  NicTlb tlb(4);
  tlb.insert(1, entry(0));
  tlb.insert(2, entry(0, 0, 0, true));
  tlb.erase(1);
  tlb.erase(2);
  tlb.erase(3);  // no-op
  EXPECT_EQ(tlb.size(), 0u);
  // Capacity restored: can insert two unpinned + evictions work.
  tlb.insert(4, entry(0));
  tlb.insert(5, entry(0));
  EXPECT_EQ(tlb.size(), 2u);
}

TEST(NicTlb, EraseReportsPresence) {
  NicTlb tlb(2);
  tlb.insert(1, entry(1));
  EXPECT_TRUE(tlb.erase(1));
  EXPECT_FALSE(tlb.erase(1));
  EXPECT_FALSE(tlb.lookup(1).has_value());
}

// agas-sw's source translation cache is this table with unpinned entries
// only (gas::AgasSw).
TEST(TranslationCacheExtra, InsertOverwriteKeepsSize) {
  NicTlb cache(4);
  cache.insert(1, entry(0));
  cache.insert(1, entry(2, 64, 1));
  EXPECT_EQ(cache.size(), 1u);
  const auto e = cache.lookup(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->owner, 2);
  EXPECT_EQ(e->generation, 1u);
}

TEST(TranslationCacheExtra, LruEvictionOrder) {
  NicTlb cache(2);
  cache.insert(1, entry(1));
  cache.insert(2, entry(2));
  (void)cache.lookup(1);
  cache.insert(3, entry(3));
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(NicTlb, HeavyChurnStaysWithinCapacity) {
  NicTlb tlb(16);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    tlb.insert(i, entry(static_cast<int>(i % 7)));
    EXPECT_LE(tlb.size(), 16u);
  }
  EXPECT_EQ(tlb.evictions(), 1000u - 16u);
}

// --- differential test against the seed table ---------------------------------

bool same(const TlbEntry& a, const TlbEntry& b) {
  return a.owner == b.owner && a.base == b.base &&
         a.generation == b.generation && a.pinned == b.pinned &&
         a.in_flight == b.in_flight;
}

// Everything observable about the two tables must agree: counters, size
// and the whole entries() sequence (pin order, then LRU order).
void expect_same_state(const NicTlb& tlb, const ReferenceNicTlb& ref,
                       const std::string& where) {
  ASSERT_EQ(tlb.hits(), ref.hits()) << where;
  ASSERT_EQ(tlb.misses(), ref.misses()) << where;
  ASSERT_EQ(tlb.evictions(), ref.evictions()) << where;
  ASSERT_EQ(tlb.size(), ref.size()) << where;
  const auto got = tlb.entries();
  const auto want = ref.entries();
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << where << " entry " << i;
    ASSERT_TRUE(same(got[i].second, want[i].second)) << where << " entry " << i;
  }
}

// Replays `calls` seeded random calls on both tables. Keys are shaped
// like block keys (low 20 bits zero); `pin_pct` percent of inserts pin.
// Records the largest size() reached in `peak`.
void run_differential(std::size_t capacity, std::uint64_t keyspace,
                      int calls, std::uint64_t pin_pct, std::uint64_t seed,
                      std::size_t& peak) {
  NicTlb tlb(capacity);
  ReferenceNicTlb ref(capacity);
  util::Rng rng(seed);
  const auto random_entry = [&rng](bool pinned) {
    return entry(static_cast<int>(rng.below(64)), rng.below(1u << 16) * 64,
                 static_cast<std::uint32_t>(rng.below(4)), pinned);
  };
  for (int c = 0; c < calls; ++c) {
    const std::uint64_t key = (rng.below(keyspace) + 1) << 20;
    const std::string where = "capacity " + std::to_string(capacity) +
                              " call " + std::to_string(c);
    switch (rng.below(6)) {
      case 0: {
        const TlbEntry e = random_entry(rng.below(100) < pin_pct);
        tlb.insert(key, e);
        (void)ref.insert(key, e);
        break;
      }
      case 1: {
        const TlbEntry e = random_entry(false);  // stale or fresh generation
        ASSERT_EQ(tlb.update(key, e), ref.update(key, e)) << where;
        break;
      }
      case 2: {
        const auto got = tlb.lookup(key);
        const auto want = ref.lookup(key);
        ASSERT_EQ(got.has_value(), want.has_value()) << where;
        if (got) {
          ASSERT_TRUE(same(*got, *want)) << where;
        }
        break;
      }
      case 3: {
        // find, then remap in place the way a migration does.
        TlbEntry* got = tlb.find(key);
        TlbEntry* want = ref.find(key);
        ASSERT_EQ(got == nullptr, want == nullptr) << where;
        if (got != nullptr) {
          ASSERT_TRUE(same(*got, *want)) << where;
          const TlbEntry e = random_entry(got->pinned);
          for (TlbEntry* t : {got, want}) {
            t->owner = e.owner;
            t->base = e.base;
            t->generation = e.generation;
            t->in_flight = !t->in_flight;
          }
        }
        break;
      }
      case 4: {
        const bool was_present = ref.peek(key) != nullptr;
        ASSERT_EQ(tlb.erase(key), was_present) << where;
        ref.erase(key);
        break;
      }
      default: {
        const TlbEntry* got = tlb.peek(key);
        const TlbEntry* want = ref.peek(key);
        ASSERT_EQ(got == nullptr, want == nullptr) << where;
        if (got != nullptr) {
          ASSERT_TRUE(same(*got, *want)) << where;
        }
        break;
      }
    }
    expect_same_state(tlb, ref, where);
    if (::testing::Test::HasFatalFailure()) return;
    peak = std::max(peak, tlb.size());
  }
}

TEST(NicTlbDifferential, MatchesSeedTableUnderRandomCalls) {
  // Small capacities churn the LRU chain; keyspaces above capacity keep
  // eviction, re-pinning and unpinning frequent.
  std::uint64_t seed = 1;
  std::size_t peak = 0;
  for (const std::size_t capacity : {1, 2, 3, 8, 64}) {
    run_differential(capacity, 4 * capacity + 8, 25'000, 30, seed++, peak);
    if (HasFatalFailure()) return;
  }
}

TEST(NicTlbDifferential, MatchesSeedTableThroughTableGrowth) {
  // Mostly pinned inserts over a large keyspace: the table doubles from
  // 16 slots at least six times (past 512 entries) while both chains are
  // linked.
  std::size_t peak = 0;
  run_differential(64, 4096, 20'000, 70, 99, peak);
  EXPECT_GT(peak, 512u);
}

}  // namespace
}  // namespace nvgas::net
