#include "lb/heat.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nvgas::lb {

void HeatMap::record(int node, std::uint64_t block_key) {
  NVGAS_DCHECK(node >= 0 && node < ranks_);
  ++accesses_;
  auto [it, inserted] = index_.try_emplace(block_key, 0);
  if (inserted) {
    if (free_.empty()) {
      it->second = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
      // protolint:allow(P4: dense per-source heat row, the canonical O(P) site; ROADMAP item 2 replaces it with sparse top-k rows over active sources)
      pool_.back().by_node.assign(static_cast<std::size_t>(ranks_), 0);
    } else {
      it->second = free_.back();
      free_.pop_back();
    }
  }
  Entry& e = pool_[it->second];
  e.heat += kAccessUnit;
  e.by_node[static_cast<std::size_t>(node)] +=
      static_cast<std::uint32_t>(kAccessUnit);
}

void HeatMap::decay(std::uint32_t shift) {
  if (shift == 0) return;
  for (auto it = index_.begin(); it != index_.end();) {
    Entry& e = pool_[it->second];
    e.heat >>= shift;
    for (std::uint32_t& v : e.by_node) v >>= shift;
    if (e.heat == 0) {
      // Recycle: zero the per-node vector in place (capacity retained).
      std::fill(e.by_node.begin(), e.by_node.end(), 0u);
      free_.push_back(it->second);
      it = index_.erase(it);
    } else {
      ++it;
    }
  }
}

void HeatMap::snapshot(std::vector<BlockHeat>& out) const {
  out.clear();
  out.reserve(index_.size());
  for (const auto& [key, slot] : index_) {
    const Entry& e = pool_[slot];
    out.push_back(BlockHeat{key, e.heat, e.by_node.data()});
  }
}

std::uint64_t HeatMap::heat_of(std::uint64_t block_key) const {
  const auto it = index_.find(block_key);
  return it == index_.end() ? 0 : pool_[it->second].heat;
}

void HeatMap::on_block_freed(std::uint64_t block_key) {
  const auto it = index_.find(block_key);
  if (it == index_.end()) return;
  Entry& e = pool_[it->second];
  e.heat = 0;
  std::fill(e.by_node.begin(), e.by_node.end(), 0u);
  free_.push_back(it->second);
  index_.erase(it);
}

}  // namespace nvgas::lb
