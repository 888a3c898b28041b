// Global heap: allocation metadata plus per-node block stores.
//
// The heap performs the placement step shared by every address-space
// manager: an allocation of N blocks of size S under a distribution
// assigns each block a *home* rank (arithmetic on the address) and
// reserves backing storage for it on that rank. What differs between the
// managers is only how the block's *current owner* is tracked afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
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

  // Release every block's *initial* backing store and the metadata.
  // Blocks that migrated are released by the owning GAS manager.
  void release_meta(std::uint32_t alloc_id);

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
  sim::Fabric* fabric_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
  // Metadata is read by every node (translation) and inserted into by
  // any creator's fiber; mutex-guarded at uncontended single-lock cost.
  // Lock order: mu_ is a leaf (nothing is called while holding it).
  mutable std::mutex mu_;
  // simlint:allow(D1: keyed find only, never iterated)
  std::unordered_map<std::uint32_t, AllocMeta> metas_;
  // block_key -> initial lva at the home node.
  // simlint:allow(D1: keyed find/erase only, never iterated)
  std::unordered_map<std::uint64_t, sim::Lva> initial_;
  std::uint32_t next_alloc_id_ = 1;
};

}  // namespace nvgas::gas
