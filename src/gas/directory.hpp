// Home-based directory for the software-managed AGAS.
//
// Each block's home rank holds the authoritative record of its current
// owner, local address, generation and sharer set (nodes caching the
// translation); a move in flight is kept by gas::MoveSequencer. Directory
// accesses always run as CPU tasks at the home — the structural cost the
// network-managed design removes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

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
  void insert(std::uint64_t block_key, int owner, sim::Lva lva) {
    const auto [it, fresh] =
        entries_.emplace(block_key, DirEntry{owner, lva, 0, {}});
    NVGAS_CHECK_MSG(fresh, "duplicate directory insert");
    (void)it;
  }

  [[nodiscard]] DirEntry& at(std::uint64_t block_key) {
    const auto it = entries_.find(block_key);
    NVGAS_CHECK_MSG(it != entries_.end(), "directory entry missing");
    return it->second;
  }
  [[nodiscard]] const DirEntry& at(std::uint64_t block_key) const {
    return const_cast<Directory*>(this)->at(block_key);
  }

  [[nodiscard]] bool contains(std::uint64_t block_key) const {
    return entries_.count(block_key) != 0;
  }

  void erase(std::uint64_t block_key) { entries_.erase(block_key); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  // simlint:allow(D1: keyed at/find/erase only, never iterated)
  std::unordered_map<std::uint64_t, DirEntry> entries_;
};

}  // namespace nvgas::gas
