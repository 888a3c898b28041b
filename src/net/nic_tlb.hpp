// NIC-resident translation table ("NIC TLB").
//
// This is the hardware structure the paper's contribution programs: each
// NIC holds a finite map from global block id to {owner node, local base
// address, generation}. Lookups, inserts and the atomic remap used by
// migration all execute on the NIC command processor, never the CPU.
//
// Capacity bounds the *cached* (unpinned) entries; eviction is LRU.
// Pinned entries — the home NIC's authoritative records, which live in a
// dedicated directory region of NIC memory — are not counted against the
// cache capacity and never evict: the home NIC is the forwarder of last
// resort, exactly like AGAS's home-based resolution.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/memory.hpp"
#include "util/assert.hpp"

namespace nvgas::net {

struct TlbEntry {
  int owner = -1;            // node currently holding the block
  sim::Lva base = 0;         // block base LVA at the owner
  std::uint32_t generation = 0;  // bumped on every migration
  bool pinned = false;       // home entries are pinned
  bool in_flight = false;    // set while a migration is moving the block
};

class NicTlb {
 public:
  explicit NicTlb(std::size_t capacity) : capacity_(capacity) {
    NVGAS_CHECK(capacity_ >= 1);
  }

  // Insert or overwrite. Pinned entries always fit (directory region);
  // unpinned entries LRU-evict once the cached-entry count exceeds the
  // capacity. Returns true iff the entry is resident afterwards (always,
  // today; kept boolean for symmetry with hardware that can refuse).
  bool insert(std::uint64_t block, const TlbEntry& entry);

  // Install an unpinned translation learned from a reply, unless the
  // resident entry is pinned or of a newer generation: a reply built
  // before a migration can land after it, and its copy must not unpin the
  // new owner's entry or roll a newer hint back. One map lookup. Returns
  // true iff `entry` was installed.
  bool update(std::uint64_t block, const TlbEntry& entry);

  // Lookup; refreshes LRU position on hit.
  [[nodiscard]] std::optional<TlbEntry> lookup(std::uint64_t block);

  // Mutating access for migration (remap / in-flight flag). Returns null
  // if absent. Does not refresh LRU: migrations should not keep stale
  // cached entries warm.
  [[nodiscard]] TlbEntry* find(std::uint64_t block);

  void erase(std::uint64_t block);

  // Read-only probe: no LRU refresh and no hit/miss accounting, so
  // invariant audits never perturb eviction or counters.
  [[nodiscard]] const TlbEntry* peek(std::uint64_t block) const;

  // Deterministic snapshot for the mcheck invariant audits: pinned
  // entries in pin order, then cached entries most-recent-first. Both
  // orders are simulation state, never hash order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, TlbEntry>> entries()
      const;

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  struct Slot {
    TlbEntry entry;
    std::list<std::uint64_t>::iterator lru_pos;  // valid iff !entry.pinned
  };

  void add(std::uint64_t block, const TlbEntry& entry);
  void overwrite(std::uint64_t block, Slot& slot, const TlbEntry& entry);
  void evict_one();
  void unpin_key(std::uint64_t block);

  std::size_t capacity_;
  // simlint:allow(D1: keyed find/erase; eviction order comes from lru_, not the map)
  std::unordered_map<std::uint64_t, Slot> map_;
  std::list<std::uint64_t> lru_;  // front = most recent
  // Pinned keys in pin order; mirrors the pinned entries in map_ so
  // entries() can snapshot them deterministically.
  std::vector<std::uint64_t> pinned_keys_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace nvgas::net
