#include "gas/tcache.hpp"

#include <algorithm>

#include "util/bitops.hpp"

namespace nvgas::gas {

TranslationCache::TranslationCache(std::size_t capacity)
    : capacity_(capacity) {
  NVGAS_CHECK(capacity_ >= 1);
  // Keep load factor <= 0.5 so linear probe chains stay short and an
  // empty slot always terminates the probe.
  const std::uint64_t table = std::max<std::uint64_t>(util::ceil_pow2(capacity_ * 2), 4);
  mask_ = static_cast<std::uint32_t>(table - 1);
  shift_ = 64u - util::floor_log2(table);
  slots_.assign(table, Slot{});
}

std::uint32_t TranslationCache::find(std::uint64_t key) const {
  std::uint32_t i = home(key);
  while (slots_[i].full) {
    if (slots_[i].key == key) return i;
    i = (i + 1) & mask_;
  }
  return kNotFound;
}

std::optional<CacheEntry> TranslationCache::lookup(std::uint64_t block_key) {
  const std::uint32_t i = find(block_key);
  if (i == kNotFound) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  slots_[i].ref = 1;
  return slots_[i].entry();
}

void TranslationCache::insert(std::uint64_t block_key, const CacheEntry& entry) {
  const std::uint32_t existing = find(block_key);
  if (existing != kNotFound) {
    slots_[existing].set(entry);
    slots_[existing].ref = 1;
    return;
  }
  if (size_ >= capacity_) evict_one();
  std::uint32_t i = home(block_key);
  while (slots_[i].full) i = (i + 1) & mask_;
  slots_[i].key = block_key;
  slots_[i].set(entry);
  slots_[i].full = true;
  slots_[i].ref = 0;  // fresh entries start unreferenced, like CLOCK inserts
  ++size_;
}

std::vector<std::pair<std::uint64_t, CacheEntry>> TranslationCache::entries()
    const {
  std::vector<std::pair<std::uint64_t, CacheEntry>> out;
  out.reserve(size_);
  for (const Slot& s : slots_) {
    if (s.full) out.emplace_back(s.key, s.entry());
  }
  return out;
}

bool TranslationCache::invalidate(std::uint64_t block_key) {
  const std::uint32_t i = find(block_key);
  if (i == kNotFound) return false;
  erase_at(i);
  --size_;
  return true;
}

void TranslationCache::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
  hand_ = 0;
}

void TranslationCache::evict_one() {
  // Second chance: sweep, clearing reference bits; evict the first
  // unreferenced entry. Terminates within two passes since every full
  // slot's bit is cleared on the first.
  while (true) {
    Slot& s = slots_[hand_];
    if (s.full) {
      if (s.ref != 0) {
        s.ref = 0;
      } else {
        erase_at(hand_);
        --size_;
        ++evictions_;
        return;
      }
    }
    hand_ = (hand_ + 1) & mask_;
  }
}

void TranslationCache::erase_at(std::uint32_t i) {
  // Backward-shift deletion: pull displaced entries back so probes never
  // need tombstones.
  slots_[i].full = false;
  std::uint32_t j = i;
  while (true) {
    j = (j + 1) & mask_;
    if (!slots_[j].full) break;
    const std::uint32_t h = home(slots_[j].key);
    if (((j - h) & mask_) >= ((j - i) & mask_)) {
      slots_[i] = slots_[j];
      slots_[j].full = false;
      i = j;
    }
  }
}

}  // namespace nvgas::gas
