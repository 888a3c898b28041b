// Home-based directory for the software-managed AGAS.
//
// Each block's home rank holds the authoritative record of its current
// owner, local address, generation and sharer set (nodes caching the
// translation); a move in flight is kept by gas::MoveSequencer. Directory
// accesses always run as CPU tasks at the home — the structural cost the
// network-managed design removes.
//
// Host-side storage is one DirEntry array per live allocation, indexed
// by the GVA's (allocation id, block): which home a record belongs to is
// arithmetic on the address, so the simulator keeps the records of every
// home in one place. Only the charging (at the home's CPU) is per-home.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gas/gva.hpp"
#include "sim/memory.hpp"
#include "util/assert.hpp"

namespace nvgas::gas {

struct DirEntry {
  int owner = -1;
  sim::Lva lva = 0;
  std::uint32_t generation = 0;
  std::vector<int> sharers;  // ascending, no duplicates

  void add_sharer(int node) {
    const auto it = std::lower_bound(sharers.begin(), sharers.end(), node);
    if (it == sharers.end() || *it != node) sharers.insert(it, node);
  }
};

class Directory {
 public:
  // Entries for a fresh allocation's blocks, for the caller to fill in.
  [[nodiscard]] std::span<DirEntry> add(std::uint32_t alloc_id,
                                        std::uint32_t nblocks) {
    if (allocs_.size() <= alloc_id) allocs_.resize(alloc_id + 1);
    auto& blocks = allocs_[alloc_id];
    NVGAS_CHECK_MSG(blocks.empty(), "duplicate directory insert");
    blocks.resize(nblocks);
    return blocks;
  }

  // Drop every entry of a freed allocation.
  void erase(std::uint32_t alloc_id) {
    NVGAS_CHECK_MSG(alloc_id < allocs_.size() && !allocs_[alloc_id].empty(),
                    "directory entry missing");
    std::vector<DirEntry>().swap(allocs_[alloc_id]);
  }

  // The block's entry, or null when its allocation has none.
  [[nodiscard]] const DirEntry* find(Gva block) const {
    if (block.alloc_id() >= allocs_.size()) return nullptr;
    const auto& blocks = allocs_[block.alloc_id()];
    return block.block() < blocks.size() ? &blocks[block.block()] : nullptr;
  }
  [[nodiscard]] const DirEntry& at(Gva block) const {
    const DirEntry* e = find(block);
    NVGAS_CHECK_MSG(e != nullptr, "directory entry missing");
    return *e;
  }
  [[nodiscard]] DirEntry& at(Gva block) {
    return const_cast<DirEntry&>(std::as_const(*this).at(block));
  }

 private:
  // allocs_[alloc id][block]. A held DirEntry& survives later
  // allocations: growing the outer vector moves each inner one, and a
  // moved vector keeps its buffer.
  std::vector<std::vector<DirEntry>> allocs_;
};

}  // namespace nvgas::gas
