// Global heap: allocation metadata plus per-node block stores.
//
// The heap performs the placement step shared by every address-space
// manager: an allocation of N blocks of size S under a distribution
// assigns each block a *home* rank (arithmetic on the address) and
// reserves backing storage for it on that rank. What differs between the
// managers is only how the block's *current owner* is tracked afterwards.
//
// A GVA names its allocation id and block number, so the metadata is
// found by position, not by hash: ids run from 1 and are never reused,
// the allocation table is indexed by id, and each allocation keeps one
// initial placement per block.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "gas/block_store.hpp"
#include "gas/costs.hpp"
#include "gas/gva.hpp"
#include "sim/fabric.hpp"

namespace nvgas::gas {

struct AllocMeta {
  std::uint32_t id = 0;
  Dist dist = Dist::kCyclic;
  int creator = 0;
  std::uint32_t nblocks = 0;
  std::uint32_t block_size = 0;
  [[nodiscard]] std::uint64_t total_bytes() const {
    return static_cast<std::uint64_t>(nblocks) * block_size;
  }
};

class GlobalHeap {
 public:
  explicit GlobalHeap(sim::Fabric& fabric);

  // Reserve an allocation: assigns homes and backing storage. Returns the
  // GVA of byte 0 of block 0. (Timing for the allocation handshake is
  // charged by the GAS layer; the heap only mutates metadata.)
  Gva alloc(Dist dist, int creator, std::uint32_t nblocks,
            std::uint32_t block_size);

  // Forget the allocation's metadata and initial placements; its id is
  // never handed out again. Backing stores are released by the GAS
  // manager (GasBase::free_alloc) at each block's current owner.
  void release_meta(std::uint32_t alloc_id);

  // A returned reference stays valid for the heap's lifetime: later
  // allocations never move a record, and release only marks it dead.
  [[nodiscard]] const AllocMeta& meta(std::uint32_t alloc_id) const;
  [[nodiscard]] const AllocMeta& meta_of(Gva gva) const { return meta(gva.alloc_id()); }
  [[nodiscard]] bool contains(Gva gva) const;

  // Initial (home) placement of a block.
  [[nodiscard]] sim::Lva initial_lva(Gva block_base) const;
  [[nodiscard]] int home_of(Gva gva) const { return gva.home(fabric_->nodes()); }

  [[nodiscard]] BlockStore& store(int node) {
    return *stores_.at(static_cast<std::size_t>(node));
  }

  // Bounds check: does `gva`+len stay inside one block of its allocation?
  void check_extent(Gva gva, std::size_t len) const;

 private:
  struct Alloc {
    AllocMeta meta;
    std::vector<sim::Lva> initial;  // per block; empty once released
  };
  // The live allocation `alloc_id` names, or null.
  [[nodiscard]] const Alloc* find(std::uint32_t alloc_id) const;

  sim::Fabric* fabric_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
  // allocs_[id - 1]; a deque, so growing it moves no record.
  std::deque<Alloc> allocs_;
};

}  // namespace nvgas::gas
