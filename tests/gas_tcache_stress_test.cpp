// Model-based stress test for agas-sw's source translation cache: the
// exact-LRU net::NicTlb holding unpinned entries only, as gas::AgasSw
// uses it. Random insert/lookup/erase/peek interleavings are checked
// against a std::map reference. The model tracks the superset of
// possibly-cached keys (eviction may drop any of them) and checks:
//   * a hit always returns the exact entry from the last insert;
//   * a key never inserted (or erased since) never hits;
//   * size never exceeds capacity and matches the model when no
//     evictions can have occurred;
//   * hits + misses == lookups, evictions only happen at capacity.
// NicTlbDifferential (net_tlb_test) pins the exact eviction order.
#include <gtest/gtest.h>

#include <map>

#include "net/nic_tlb.hpp"
#include "util/rng.hpp"

namespace nvgas::net {
namespace {

TlbEntry make_entry(util::Rng& rng) {
  return TlbEntry{static_cast<int>(rng.below(64)), rng.below(1u << 20) * 64,
                  static_cast<std::uint32_t>(rng.below(16))};
}

void stress(std::size_t capacity, std::uint64_t seed, int ops,
            std::uint64_t key_space) {
  SCOPED_TRACE(::testing::Message() << "capacity=" << capacity
                                    << " seed=" << seed);
  NicTlb cache(capacity);
  std::map<std::uint64_t, TlbEntry> model;  // keys possibly cached
  util::Rng rng(seed);
  std::uint64_t lookups = 0;
  std::uint64_t inserts_at_capacity = 0;

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t key = rng.below(key_space) << 7;  // block-aligned-ish
    switch (rng.below(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // insert
        const TlbEntry e = make_entry(rng);
        const std::uint64_t evictions_before = cache.evictions();
        const bool was_resident = cache.size() > 0 && [&] {
          const auto probe = cache.lookup(key);
          ++lookups;
          return probe.has_value();
        }();
        const bool at_capacity = cache.size() >= capacity;
        if (at_capacity && !was_resident) ++inserts_at_capacity;
        cache.insert(key, e);
        model[key] = e;
        // Eviction iff a new key displaced a resident one at capacity.
        const std::uint64_t expect_evictions =
            evictions_before + ((at_capacity && !was_resident) ? 1 : 0);
        ASSERT_EQ(cache.evictions(), expect_evictions);
        // The just-inserted key must be resident.
        const auto got = cache.lookup(key);
        ++lookups;
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->owner, e.owner);
        EXPECT_EQ(got->base, e.base);
        EXPECT_EQ(got->generation, e.generation);
        break;
      }
      case 4:
      case 5:
      case 6:
      case 7: {  // lookup
        const auto got = cache.lookup(key);
        ++lookups;
        const auto it = model.find(key);
        if (it == model.end()) {
          // Never inserted (or invalidated): must miss.
          EXPECT_FALSE(got.has_value());
        } else if (got.has_value()) {
          // May have been evicted; but a hit must match the model.
          EXPECT_EQ(got->owner, it->second.owner);
          EXPECT_EQ(got->base, it->second.base);
          EXPECT_EQ(got->generation, it->second.generation);
        }
        break;
      }
      case 8: {  // erase
        const bool cache_had = cache.erase(key);
        const bool model_had = model.erase(key) > 0;
        // Cache presence implies model presence (not vice versa: it may
        // have been evicted).
        EXPECT_LE(cache_had, model_had);
        ++lookups;  // the follow-up lookup below
        EXPECT_FALSE(cache.lookup(key).has_value());
        break;
      }
      default: {  // peek: no LRU refresh, no hit/miss accounting
        const TlbEntry* got = cache.peek(key);
        const auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_EQ(got, nullptr);
        } else if (got != nullptr) {
          EXPECT_EQ(got->owner, it->second.owner);
          EXPECT_EQ(got->base, it->second.base);
          EXPECT_EQ(got->generation, it->second.generation);
        }
        break;
      }
    }
    ASSERT_LE(cache.size(), capacity);
    // Without evictions the cache tracks the model exactly.
    if (cache.evictions() == 0) {
      EXPECT_EQ(cache.size(), model.size());
    }
    ASSERT_EQ(cache.hits() + cache.misses(), lookups);
  }
  // With a key space larger than capacity, evictions must have happened
  // whenever we kept inserting at capacity.
  if (inserts_at_capacity > 0) {
    EXPECT_GE(cache.evictions(), inserts_at_capacity);
  }
}

TEST(TranslationCacheStress, TinyCapacity) {
  stress(/*capacity=*/1, /*seed=*/11, /*ops=*/4000, /*key_space=*/16);
  stress(/*capacity=*/2, /*seed=*/12, /*ops=*/4000, /*key_space=*/16);
  stress(/*capacity=*/3, /*seed=*/13, /*ops=*/4000, /*key_space=*/8);
}

TEST(TranslationCacheStress, SmallCapacityHighChurn) {
  stress(/*capacity=*/8, /*seed=*/21, /*ops=*/20000, /*key_space=*/64);
  stress(/*capacity=*/17, /*seed=*/22, /*ops=*/20000, /*key_space=*/64);
}

TEST(TranslationCacheStress, LargeCapacityFewEvictions) {
  stress(/*capacity=*/1024, /*seed=*/31, /*ops=*/30000, /*key_space=*/900);
  stress(/*capacity=*/4096, /*seed=*/32, /*ops=*/30000, /*key_space=*/8192);
}

TEST(TranslationCacheStress, HotSetSurvivesScan) {
  // A repeatedly-touched hot set survives a one-shot scan over a cold
  // key range.
  NicTlb cache(64);
  for (std::uint64_t k = 0; k < 32; ++k) {
    cache.insert(k, TlbEntry{1, k * 64, 0});
  }
  for (std::uint64_t cold = 1000; cold < 1256; ++cold) {
    // Interleave: the hot set is touched between every cold insert, as a
    // translation cache would see during a scan over remote blocks.
    for (std::uint64_t k = 0; k < 32; ++k) {
      ASSERT_TRUE(cache.lookup(k).has_value()) << "hot key " << k
                                               << " evicted at cold " << cold;
    }
    cache.insert(cold, TlbEntry{2, cold, 0});  // cold scan, fills + evicts
  }
  int hot_survivors = 0;
  for (std::uint64_t k = 0; k < 32; ++k) {
    if (cache.lookup(k).has_value()) ++hot_survivors;
  }
  // Exact LRU evicts only cold entries: the whole hot set stays.
  EXPECT_EQ(hot_survivors, 32);
}

}  // namespace
}  // namespace nvgas::net
