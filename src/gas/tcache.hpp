// Source-side software translation cache (per node), used by the
// software-managed AGAS baseline. Bounded capacity; entries are
// invalidated by the home directory before a block moves, so a cached
// translation is never stale.
//
// Implementation: a flat open-addressing hash table (linear probing,
// backward-shift deletion) in one contiguous array, with CLOCK
// (second-chance) eviction — a hit sets the slot's reference bit, the
// eviction hand sweeps the array clearing reference bits and evicts the
// first unreferenced entry. Compared to the seed's unordered_map +
// std::list LRU this is zero allocations per operation and one cache
// line per probe instead of three pointer chases, while approximating
// LRU closely enough that recency-ordered workloads evict identically.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/memory.hpp"
#include "util/assert.hpp"

namespace nvgas::gas {

struct CacheEntry {
  int owner = -1;
  sim::Lva lva = 0;
  std::uint32_t generation = 0;
};

class TranslationCache {
 public:
  explicit TranslationCache(std::size_t capacity);

  [[nodiscard]] std::optional<CacheEntry> lookup(std::uint64_t block_key);
  void insert(std::uint64_t block_key, const CacheEntry& entry);
  // Invalidate one block; returns true if it was present.
  bool invalidate(std::uint64_t block_key);
  void clear();

  // Deterministic (slot-index order) snapshot of resident entries, for
  // the mcheck invariant audits.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, CacheEntry>> entries()
      const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  // CacheEntry's fields, stored without its padding so a slot is 32 B.
  struct Slot {
    std::uint64_t key = 0;
    sim::Lva lva = 0;
    int owner = -1;
    std::uint32_t generation = 0;
    bool full = false;
    std::uint8_t ref = 0;  // CLOCK reference bit

    [[nodiscard]] CacheEntry entry() const { return {owner, lva, generation}; }
    void set(const CacheEntry& e) {
      owner = e.owner;
      lva = e.lva;
      generation = e.generation;
    }
  };
  static_assert(sizeof(Slot) == 32);

  static constexpr std::uint32_t kNotFound = 0xffffffffu;

  // Fibonacci multiply-shift onto the table's index range.
  [[nodiscard]] std::uint32_t home(std::uint64_t key) const {
    return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const;
  void erase_at(std::uint32_t i);
  void evict_one();

  std::size_t capacity_;
  std::uint32_t mask_ = 0;
  std::uint32_t shift_ = 0;
  std::uint32_t hand_ = 0;  // CLOCK hand
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace nvgas::gas
