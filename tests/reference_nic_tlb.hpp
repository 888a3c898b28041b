// Frozen copy of the seed NIC TLB: std::unordered_map keyed by block
// plus a std::list in LRU order. Kept verbatim (modulo the class name and
// `inline` on the out-of-line members) as the behavioral oracle for the
// production open-addressing net::NicTlb: the differential test replays
// identical call sequences through both and compares every return value,
// counter and entries() snapshot. Do not "improve" this file; its value
// is that it does not change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/nic_tlb.hpp"
#include "util/assert.hpp"

namespace nvgas::net {

class ReferenceNicTlb {
 public:
  explicit ReferenceNicTlb(std::size_t capacity) : capacity_(capacity) {
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


inline bool ReferenceNicTlb::insert(std::uint64_t block, const TlbEntry& entry) {
  const auto it = map_.find(block);
  if (it == map_.end()) {
    add(block, entry);
  } else {
    overwrite(block, it->second, entry);
  }
  return true;
}

inline bool ReferenceNicTlb::update(std::uint64_t block, const TlbEntry& entry) {
  NVGAS_CHECK(!entry.pinned);
  const auto it = map_.find(block);
  if (it == map_.end()) {
    add(block, entry);
    return true;
  }
  const TlbEntry& held = it->second.entry;
  if (held.pinned || held.generation > entry.generation) return false;
  overwrite(block, it->second, entry);
  return true;
}

inline void ReferenceNicTlb::overwrite(std::uint64_t block, Slot& slot, const TlbEntry& entry) {
  // Overwrite in place; adjust pinned bookkeeping and LRU membership.
  const bool was_pinned = slot.entry.pinned;
  if (was_pinned && !entry.pinned) {
    unpin_key(block);
    lru_.push_front(block);
    slot.lru_pos = lru_.begin();
  } else if (!was_pinned && entry.pinned) {
    pinned_keys_.push_back(block);
    lru_.erase(slot.lru_pos);
  } else if (!entry.pinned) {
    lru_.splice(lru_.begin(), lru_, slot.lru_pos);
    slot.lru_pos = lru_.begin();
  }
  slot.entry = entry;
}

inline void ReferenceNicTlb::add(std::uint64_t block, const TlbEntry& entry) {
  if (!entry.pinned && lru_.size() >= capacity_) evict_one();

  Slot slot;
  slot.entry = entry;
  if (entry.pinned) {
    pinned_keys_.push_back(block);
  } else {
    lru_.push_front(block);
    slot.lru_pos = lru_.begin();
  }
  map_.emplace(block, std::move(slot));
}

inline std::optional<TlbEntry> ReferenceNicTlb::lookup(std::uint64_t block) {
  auto it = map_.find(block);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  Slot& slot = it->second;
  if (!slot.entry.pinned) {
    lru_.splice(lru_.begin(), lru_, slot.lru_pos);
    slot.lru_pos = lru_.begin();
  }
  return slot.entry;
}

inline TlbEntry* ReferenceNicTlb::find(std::uint64_t block) {
  auto it = map_.find(block);
  return it == map_.end() ? nullptr : &it->second.entry;
}

inline void ReferenceNicTlb::erase(std::uint64_t block) {
  auto it = map_.find(block);
  if (it == map_.end()) return;
  if (it->second.entry.pinned) {
    unpin_key(block);
  } else {
    lru_.erase(it->second.lru_pos);
  }
  map_.erase(it);
}

inline const TlbEntry* ReferenceNicTlb::peek(std::uint64_t block) const {
  auto it = map_.find(block);
  return it == map_.end() ? nullptr : &it->second.entry;
}

inline std::vector<std::pair<std::uint64_t, TlbEntry>> ReferenceNicTlb::entries() const {
  std::vector<std::pair<std::uint64_t, TlbEntry>> out;
  out.reserve(map_.size());
  for (const std::uint64_t key : pinned_keys_) {
    out.emplace_back(key, map_.find(key)->second.entry);
  }
  for (const std::uint64_t key : lru_) {
    out.emplace_back(key, map_.find(key)->second.entry);
  }
  return out;
}

inline void ReferenceNicTlb::unpin_key(std::uint64_t block) {
  auto it = std::find(pinned_keys_.begin(), pinned_keys_.end(), block);
  if (it != pinned_keys_.end()) pinned_keys_.erase(it);
}

inline void ReferenceNicTlb::evict_one() {
  NVGAS_CHECK(!lru_.empty());
  const std::uint64_t victim = lru_.back();
  lru_.pop_back();
  map_.erase(victim);
  ++evictions_;
}

}  // namespace nvgas::net
