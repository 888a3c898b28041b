// Translation table: global block id -> {owner node, local base address,
// generation}.
//
// Both mobile managers hold this one table; only who runs it differs,
// which is the paper's variable:
//   * agas-net: each NIC holds one ("NIC TLB"). Lookups, inserts and the
//     atomic remap used by migration execute on the NIC command
//     processor, never the CPU. This is the hardware structure the
//     paper's contribution programs.
//   * agas-sw: each node's CPU holds one of unpinned entries only, the
//     source-side translation cache, and every lookup and insert is a
//     CPU task (gas::AgasSw).
//
// Capacity bounds the *cached* (unpinned) entries; eviction is exact LRU.
// Pinned entries — the home NIC's authoritative records, which live in a
// dedicated directory region of NIC memory — are not counted against the
// cache capacity and never evict: the home NIC is the forwarder of last
// resort, exactly like AGAS's home-based resolution.
//
// Layout: one flat open-addressing table of 40-byte slots (Fibonacci
// multiply-shift hash, linear probing, backward-shift deletion), so an
// operation allocates nothing and a probe walks adjacent slots instead of
// chasing list and bucket nodes. The table starts small and doubles at
// load factor 1/2; it is never sized from the capacity, which defaults
// far above what a run touches. Each occupied slot links to two
// neighbours by slot index, threading it onto one of two chains:
//   * the LRU chain of cached entries, most recent first; a hit moves
//     the entry to the front and eviction takes the back;
//   * the pinned chain, in pin order.
// Backward shift and growth move slots, and fix the neighbours' links
// as they do. Eviction order, hit/miss/eviction counts and entries()
// order are those of the seed's unordered_map + std::list table
// (tests/reference_nic_tlb.hpp; net_tlb_test replays random calls through
// both).
//
// A pointer returned by find() or peek() stays valid until the next
// insert(), update() or erase() on the same TLB, any of which may move
// slots.
#pragma once

#include <cstdint>
#include <optional>
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
  explicit NicTlb(std::size_t capacity);

  // Insert or overwrite. Pinned entries always fit (directory region);
  // unpinned entries LRU-evict once the cached-entry count exceeds the
  // capacity.
  void insert(std::uint64_t block, const TlbEntry& entry);

  // Install an unpinned translation learned from a reply, unless the
  // resident entry is pinned or of a newer generation: a reply built
  // before a migration can land after it, and its copy must not unpin the
  // new owner's entry or roll a newer hint back. One table probe. Returns
  // true iff `entry` was installed.
  bool update(std::uint64_t block, const TlbEntry& entry);

  // Lookup; refreshes LRU position on hit.
  [[nodiscard]] std::optional<TlbEntry> lookup(std::uint64_t block);

  // Mutating access for migration (remap / in-flight flag). Returns null
  // if absent. Does not refresh LRU: migrations should not keep stale
  // cached entries warm. Callers may change every field but `pinned`,
  // which picks the entry's chain; re-pin through insert().
  [[nodiscard]] TlbEntry* find(std::uint64_t block);

  // Remove one entry; returns true if it was present.
  bool erase(std::uint64_t block);

  // Read-only probe: no LRU refresh and no hit/miss accounting, so
  // invariant audits never perturb eviction or counters.
  [[nodiscard]] const TlbEntry* peek(std::uint64_t block) const;

  // Deterministic snapshot for the mcheck invariant audits: pinned
  // entries in pin order, then cached entries most-recent-first. Both
  // orders are simulation state, never hash order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, TlbEntry>> entries()
      const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  // `prev` == kEmpty marks a free slot; kNil ends a chain.
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::uint32_t kNil = 0xfffffffeu;

  struct Slot {
    std::uint64_t key = 0;
    TlbEntry entry;
    std::uint32_t prev = kEmpty;  // toward the chain's head
    std::uint32_t next = kNil;    // toward the chain's tail
  };
  static_assert(sizeof(Slot) == 40);

  struct Chain {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // Fibonacci multiply-shift onto the table's index range.
  [[nodiscard]] std::uint32_t home(std::uint64_t key) const {
    return static_cast<std::uint32_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  [[nodiscard]] bool empty(std::uint32_t i) const {
    return slots_[i].prev == kEmpty;
  }
  [[nodiscard]] Chain& chain_of(const Slot& s) {
    return s.entry.pinned ? pinned_ : lru_;
  }
  [[nodiscard]] std::uint32_t find_slot(std::uint64_t key) const;

  void link_front(Chain& c, std::uint32_t i);
  void link_back(Chain& c, std::uint32_t i);
  void unlink(Chain& c, std::uint32_t i);
  void add(std::uint64_t block, const TlbEntry& entry);
  void overwrite(std::uint32_t i, const TlbEntry& entry);
  // Write key/entry into the first free slot of its probe sequence.
  std::uint32_t place(std::uint64_t key, const TlbEntry& entry);
  void grow();
  // Unlink and free slot i, then backward-shift its probe run.
  void remove(std::uint32_t i);
  // Move the occupied slot `from` into the free slot `to`.
  void relocate(std::uint32_t from, std::uint32_t to);
  void evict_one();

  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::uint32_t mask_ = 0;
  std::uint32_t shift_ = 0;
  std::size_t size_ = 0;
  std::size_t cached_ = 0;  // entries on the LRU chain
  Chain lru_;
  Chain pinned_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace nvgas::net
