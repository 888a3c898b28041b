#include "net/nic_tlb.hpp"

#include <algorithm>

namespace nvgas::net {

bool NicTlb::insert(std::uint64_t block, const TlbEntry& entry) {
  const auto it = map_.find(block);
  if (it == map_.end()) {
    add(block, entry);
  } else {
    overwrite(block, it->second, entry);
  }
  return true;
}

bool NicTlb::update(std::uint64_t block, const TlbEntry& entry) {
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

void NicTlb::overwrite(std::uint64_t block, Slot& slot, const TlbEntry& entry) {
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

void NicTlb::add(std::uint64_t block, const TlbEntry& entry) {
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

std::optional<TlbEntry> NicTlb::lookup(std::uint64_t block) {
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

TlbEntry* NicTlb::find(std::uint64_t block) {
  auto it = map_.find(block);
  return it == map_.end() ? nullptr : &it->second.entry;
}

void NicTlb::erase(std::uint64_t block) {
  auto it = map_.find(block);
  if (it == map_.end()) return;
  if (it->second.entry.pinned) {
    unpin_key(block);
  } else {
    lru_.erase(it->second.lru_pos);
  }
  map_.erase(it);
}

const TlbEntry* NicTlb::peek(std::uint64_t block) const {
  auto it = map_.find(block);
  return it == map_.end() ? nullptr : &it->second.entry;
}

std::vector<std::pair<std::uint64_t, TlbEntry>> NicTlb::entries() const {
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

void NicTlb::unpin_key(std::uint64_t block) {
  auto it = std::find(pinned_keys_.begin(), pinned_keys_.end(), block);
  if (it != pinned_keys_.end()) pinned_keys_.erase(it);
}

void NicTlb::evict_one() {
  NVGAS_CHECK(!lru_.empty());
  const std::uint64_t victim = lru_.back();
  lru_.pop_back();
  map_.erase(victim);
  ++evictions_;
}

}  // namespace nvgas::net
