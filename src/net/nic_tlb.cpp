#include "net/nic_tlb.hpp"

#include "util/bitops.hpp"

namespace nvgas::net {

namespace {
constexpr std::uint32_t kInitialSlots = 16;
}  // namespace

NicTlb::NicTlb(std::size_t capacity) : capacity_(capacity) {
  NVGAS_CHECK(capacity_ >= 1);
  slots_.assign(kInitialSlots, Slot{});
  mask_ = kInitialSlots - 1;
  shift_ = 64u - util::floor_log2(kInitialSlots);
}

std::uint32_t NicTlb::find_slot(std::uint64_t key) const {
  std::uint32_t i = home(key);
  while (!empty(i)) {
    if (slots_[i].key == key) return i;
    i = (i + 1) & mask_;
  }
  return kEmpty;
}

void NicTlb::insert(std::uint64_t block, const TlbEntry& entry) {
  const std::uint32_t i = find_slot(block);
  if (i == kEmpty) {
    add(block, entry);
  } else {
    overwrite(i, entry);
  }
}

bool NicTlb::update(std::uint64_t block, const TlbEntry& entry) {
  NVGAS_CHECK(!entry.pinned);
  const std::uint32_t i = find_slot(block);
  if (i == kEmpty) {
    add(block, entry);
    return true;
  }
  const TlbEntry& held = slots_[i].entry;
  if (held.pinned || held.generation > entry.generation) return false;
  overwrite(i, entry);
  return true;
}

void NicTlb::overwrite(std::uint32_t i, const TlbEntry& entry) {
  // Overwrite in place; move the slot between chains on a pin change.
  const bool was_pinned = slots_[i].entry.pinned;
  if (was_pinned && !entry.pinned) {
    unlink(pinned_, i);
    link_front(lru_, i);
    ++cached_;
  } else if (!was_pinned && entry.pinned) {
    unlink(lru_, i);
    link_back(pinned_, i);
    --cached_;
  } else if (!entry.pinned) {
    unlink(lru_, i);
    link_front(lru_, i);
  }
  slots_[i].entry = entry;
}

void NicTlb::add(std::uint64_t block, const TlbEntry& entry) {
  if (!entry.pinned && cached_ >= capacity_) evict_one();
  // Keep load factor <= 1/2 so probe runs stay short and an empty slot
  // always terminates a probe.
  if ((size_ + 1) * 2 > slots_.size()) grow();
  const std::uint32_t i = place(block, entry);
  if (entry.pinned) {
    link_back(pinned_, i);
  } else {
    link_front(lru_, i);
    ++cached_;
  }
  ++size_;
}

std::uint32_t NicTlb::place(std::uint64_t key, const TlbEntry& entry) {
  std::uint32_t i = home(key);
  while (!empty(i)) i = (i + 1) & mask_;
  slots_[i].key = key;
  slots_[i].entry = entry;
  return i;
}

void NicTlb::grow() {
  std::vector<Slot> old(slots_.size() * 2, Slot{});
  old.swap(slots_);
  mask_ = static_cast<std::uint32_t>(slots_.size() - 1);
  shift_ = 64u - util::floor_log2(slots_.size());
  // Re-place each chain in order and append it to its fresh chain, so
  // LRU and pin order survive the rehash.
  const Chain pinned = pinned_;
  const Chain lru = lru_;
  pinned_ = {};
  lru_ = {};
  for (std::uint32_t j = pinned.head; j != kNil; j = old[j].next) {
    link_back(pinned_, place(old[j].key, old[j].entry));
  }
  for (std::uint32_t j = lru.head; j != kNil; j = old[j].next) {
    link_back(lru_, place(old[j].key, old[j].entry));
  }
}

void NicTlb::link_front(Chain& c, std::uint32_t i) {
  slots_[i].prev = kNil;
  slots_[i].next = c.head;
  if (c.head == kNil) {
    c.tail = i;
  } else {
    slots_[c.head].prev = i;
  }
  c.head = i;
}

void NicTlb::link_back(Chain& c, std::uint32_t i) {
  slots_[i].prev = c.tail;
  slots_[i].next = kNil;
  if (c.tail == kNil) {
    c.head = i;
  } else {
    slots_[c.tail].next = i;
  }
  c.tail = i;
}

void NicTlb::unlink(Chain& c, std::uint32_t i) {
  const Slot& s = slots_[i];
  if (s.prev == kNil) {
    c.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNil) {
    c.tail = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
}

std::optional<TlbEntry> NicTlb::lookup(std::uint64_t block) {
  const std::uint32_t i = find_slot(block);
  if (i == kEmpty) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  if (!slots_[i].entry.pinned && lru_.head != i) {
    unlink(lru_, i);
    link_front(lru_, i);
  }
  return slots_[i].entry;
}

TlbEntry* NicTlb::find(std::uint64_t block) {
  const std::uint32_t i = find_slot(block);
  return i == kEmpty ? nullptr : &slots_[i].entry;
}

const TlbEntry* NicTlb::peek(std::uint64_t block) const {
  const std::uint32_t i = find_slot(block);
  return i == kEmpty ? nullptr : &slots_[i].entry;
}

bool NicTlb::erase(std::uint64_t block) {
  const std::uint32_t i = find_slot(block);
  if (i == kEmpty) return false;
  remove(i);
  return true;
}

std::vector<std::pair<std::uint64_t, TlbEntry>> NicTlb::entries() const {
  std::vector<std::pair<std::uint64_t, TlbEntry>> out;
  out.reserve(size_);
  for (std::uint32_t i = pinned_.head; i != kNil; i = slots_[i].next) {
    out.emplace_back(slots_[i].key, slots_[i].entry);
  }
  for (std::uint32_t i = lru_.head; i != kNil; i = slots_[i].next) {
    out.emplace_back(slots_[i].key, slots_[i].entry);
  }
  return out;
}

void NicTlb::evict_one() {
  NVGAS_CHECK(lru_.tail != kNil);
  remove(lru_.tail);
  ++evictions_;
}

void NicTlb::remove(std::uint32_t i) {
  if (!slots_[i].entry.pinned) --cached_;
  unlink(chain_of(slots_[i]), i);
  slots_[i].prev = kEmpty;
  --size_;
  // Backward-shift deletion: pull displaced entries back so probes never
  // need tombstones.
  std::uint32_t j = i;
  while (true) {
    j = (j + 1) & mask_;
    if (empty(j)) break;
    const std::uint32_t h = home(slots_[j].key);
    if (((j - h) & mask_) >= ((j - i) & mask_)) {
      relocate(j, i);
      i = j;
    }
  }
}

void NicTlb::relocate(std::uint32_t from, std::uint32_t to) {
  slots_[to] = slots_[from];
  slots_[from].prev = kEmpty;
  Slot& s = slots_[to];
  Chain& c = chain_of(s);
  if (s.prev == kNil) {
    c.head = to;
  } else {
    slots_[s.prev].next = to;
  }
  if (s.next == kNil) {
    c.tail = to;
  } else {
    slots_[s.next].prev = to;
  }
}

}  // namespace nvgas::net
