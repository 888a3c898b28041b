#include "sim/engine.hpp"

#include <algorithm>
#include <bit>

#include "util/bitops.hpp"

namespace nvgas::sim {

Engine::Engine(Time horizon_ns) {
  // At least 1024 slots so the occupancy bitmaps have whole words to
  // work with; the default 64 µs horizon is 65536 slots (one per ns).
  const Time clamped = std::max<Time>(horizon_ns, 1024);
  slots_ = static_cast<std::uint32_t>(util::ceil_pow2(clamped));
  mask_ = slots_ - 1;
  bucket_head_.assign(slots_, -1);
  bucket_tail_.assign(slots_, -1);
  occ_.assign(slots_ / 64, 0);
  occ_sum_.assign((slots_ / 64 + 63) / 64, 0);
}

#ifdef NVGAS_SIMSAN
// Canary + lifecycle audit on every pool transition. `seq` doubles as
// the generation tag: it is unique per schedule() and never reused, so
// a stale TimerId can never match a recycled-and-reused node.
void Engine::simsan_audit(const EventNode& n, const char* site) const {
  if (n.canary_pre != kSimsanCanary || n.canary_post != kSimsanCanary) {
    util::panic(__FILE__, __LINE__, site);
  }
}
#endif

std::int32_t Engine::alloc_node() {
  if (free_head_ >= 0) {
    const std::int32_t idx = free_head_;
    free_head_ = pool_[static_cast<std::size_t>(idx)].next;
#ifdef NVGAS_SIMSAN
    const EventNode& n = pool_[static_cast<std::size_t>(idx)];
    simsan_audit(n, "SimSan: canary smashed on free-list node (alloc)");
    NVGAS_CHECK_MSG(!n.live, "SimSan: free list holds a live event node");
    NVGAS_CHECK_MSG(n.fn.is_poisoned(),
                    "SimSan: recycled node escaped poisoning");
#endif
    return idx;
  }
  pool_.emplace_back();
  return static_cast<std::int32_t>(pool_.size() - 1);
}

void Engine::recycle(std::int32_t idx) {
  EventNode& n = pool_[static_cast<std::size_t>(idx)];
#ifdef NVGAS_SIMSAN
  simsan_audit(n, "SimSan: canary smashed on event node (recycle)");
  NVGAS_CHECK_MSG(n.live, "SimSan: double recycle of event node");
  n.fn.poison();  // a stale invocation now aborts with a diagnostic
#else
  n.fn.reset();
#endif
  n.live = false;
  n.next = free_head_;
  free_head_ = idx;
}

void Engine::set_bit(std::uint32_t slot) {
  occ_[slot >> 6] |= 1ULL << (slot & 63);
  occ_sum_[slot >> 12] |= 1ULL << ((slot >> 6) & 63);
}

void Engine::clear_bit(std::uint32_t slot) {
  occ_[slot >> 6] &= ~(1ULL << (slot & 63));
  if (occ_[slot >> 6] == 0) {
    occ_sum_[slot >> 12] &= ~(1ULL << ((slot >> 6) & 63));
  }
}

void Engine::push_bucket(std::int32_t idx) {
  EventNode& n = pool_[static_cast<std::size_t>(idx)];
  const auto slot = static_cast<std::uint32_t>(n.at & mask_);
  n.next = -1;
  if (bucket_head_[slot] < 0) {
    bucket_head_[slot] = idx;
    bucket_tail_[slot] = idx;
    set_bit(slot);
  } else {
    pool_[static_cast<std::size_t>(bucket_tail_[slot])].next = idx;
    bucket_tail_[slot] = idx;
  }
  ++wheel_count_;
}

void Engine::remove_bucket_head(std::uint32_t slot) {
  const std::int32_t idx = bucket_head_[slot];
  NVGAS_DCHECK(idx >= 0);
  bucket_head_[slot] = pool_[static_cast<std::size_t>(idx)].next;
  if (bucket_head_[slot] < 0) {
    bucket_tail_[slot] = -1;
    clear_bit(slot);
  }
  --wheel_count_;
}

std::int32_t Engine::scan_range(std::uint32_t from,
                                std::uint32_t end) const {
  if (from >= end) return -1;
  std::uint32_t w = from >> 6;
  const std::uint32_t end_w = (end + 63) >> 6;
  std::uint64_t word = occ_[w] & (~0ULL << (from & 63));
  while (true) {
    if (word != 0) {
      const auto s =
          (w << 6) | static_cast<std::uint32_t>(std::countr_zero(word));
      return s < end ? static_cast<std::int32_t>(s) : -1;
    }
    ++w;
    if (w >= end_w) return -1;
    // Jump over runs of empty words through the summary bitmap.
    std::uint32_t sw = w >> 6;
    std::uint64_t sword = occ_sum_[sw] & (~0ULL << (w & 63));
    while (sword == 0) {
      ++sw;
      if ((sw << 6) >= end_w) return -1;
      sword = occ_sum_[sw];
    }
    w = (sw << 6) | static_cast<std::uint32_t>(std::countr_zero(sword));
    if (w >= end_w) return -1;
    word = occ_[w];
  }
}

Engine::TimerId Engine::schedule(Time t, Callback fn) {
  NVGAS_CHECK_MSG(t >= now_, "scheduling into the past");
  const std::int32_t idx = alloc_node();
  EventNode& n = pool_[static_cast<std::size_t>(idx)];
  n.at = t;
  n.seq = next_seq_++;
  n.cancelled = false;
  n.live = true;
  n.fn = std::move(fn);
  ++pending_;
  // An empty wheel can be re-anchored anywhere; park the window right at
  // this event so it lands in a bucket instead of the overflow heap.
  if (wheel_count_ == 0) window_start_ = t;
  if (t >= window_start_ && t - window_start_ < slots_) {
    push_bucket(idx);
  } else {
    far_.push(FarRef{t, n.seq, idx});
  }
  return TimerId{static_cast<std::uint32_t>(idx), n.seq};
}

bool Engine::cancel(TimerId id) {
  if (id.node >= pool_.size()) return false;  // also rejects invalid ids
  EventNode& n = pool_[id.node];
#ifdef NVGAS_SIMSAN
  // Generation audit: `seq` matching means this token refers to exactly
  // this scheduled instance. Cancelling it twice is a caller lifecycle
  // bug (the first cancel already released the closure); cancelling
  // after the event fired is legal API use and still returns false
  // below, because the node's seq has moved on or the node is free.
  if (n.live && n.seq == id.seq && n.cancelled) {
    util::panic(__FILE__, __LINE__,
                "SimSan: double cancel of timer (token already cancelled)");
  }
#endif
  if (!n.live || n.cancelled || n.seq != id.seq) return false;
  n.cancelled = true;
  n.fn.reset();  // release the closure eagerly
  --pending_;
  return true;
}

void Engine::decant() {
  while (!far_.empty()) {
    const FarRef top = far_.top();
    // Entries below the window (possible only after a re-anchor raced an
    // insert) or beyond it stay in the heap; pop_next handles them.
    if (top.at < window_start_ || top.at - window_start_ >= slots_) break;
    far_.pop();
    if (pool_[static_cast<std::size_t>(top.node)].cancelled) {
      recycle(top.node);
      continue;
    }
    push_bucket(top.node);
  }
}

std::int32_t Engine::pop_next(bool bounded, Time deadline) {
  while (true) {
    // Wheel candidate: earliest occupied slot, circular from the window
    // base. All wheel events lie in [window_start_, window_start_ +
    // slots_), so slot order from the base is time order.
    std::int32_t wslot = -1;
    std::int32_t widx = -1;
    if (wheel_count_ > 0) {
      const auto base = static_cast<std::uint32_t>(window_start_ & mask_);
      wslot = scan_range(base, slots_);
      if (wslot < 0) wslot = scan_range(0, base);
      NVGAS_DCHECK(wslot >= 0);
      widx = bucket_head_[static_cast<std::uint32_t>(wslot)];
      if (pool_[static_cast<std::size_t>(widx)].cancelled) {
        remove_bucket_head(static_cast<std::uint32_t>(wslot));
        recycle(widx);
        continue;
      }
    }
    // Far candidate: prune cancelled tops.
    if (!far_.empty()) {
      const std::int32_t fidx = far_.top().node;
      if (pool_[static_cast<std::size_t>(fidx)].cancelled) {
        far_.pop();
        recycle(fidx);
        continue;
      }
    }

    const bool have_w = widx >= 0;
    const bool have_f = !far_.empty();
    if (!have_w && !have_f) return -1;
    bool take_far;
    if (!have_w) {
      take_far = true;
    } else if (!have_f) {
      take_far = false;
    } else {
      const FarRef& f = far_.top();
      const EventNode& wn = pool_[static_cast<std::size_t>(widx)];
      take_far = f.at < wn.at || (f.at == wn.at && f.seq < wn.seq);
    }
    if (bounded) {
      const Time t =
          take_far ? far_.top().at : pool_[static_cast<std::size_t>(widx)].at;
      if (t > deadline) return -1;
    }
    if (!take_far) {
      remove_bucket_head(static_cast<std::uint32_t>(wslot));
      return widx;
    }
    const std::int32_t idx = far_.top().node;
    far_.pop();
    if (wheel_count_ == 0 && !far_.empty()) {
      window_start_ =
          std::max(window_start_, pool_[static_cast<std::size_t>(idx)].at);
      decant();
    }
    return idx;
  }
}

void Engine::execute(std::int32_t idx) {
  EventNode& n = pool_[static_cast<std::size_t>(idx)];
#ifdef NVGAS_SIMSAN
  simsan_audit(n, "SimSan: canary smashed on event node (execute)");
  NVGAS_CHECK_MSG(n.live && !n.cancelled,
                  "SimSan: executing a recycled or cancelled event node");
#endif
  NVGAS_DCHECK(n.at >= now_);
  now_ = n.at;
  NVGAS_DCHECK(pending_ > 0);
  --pending_;
  // Slide the window base up to now: keeps bitmap scans short, and every
  // pending event is >= now, so the slot mapping stays unique.
  if (now_ > window_start_) window_start_ = now_;
  const Time t = n.at;
  const std::uint64_t seq = n.seq;
  // Pinned tie-break contract: execution order is the strict total order
  // (time, seq) — co-timed events run in scheduling order. mcheck's
  // schedule replay (sim/explorer.hpp) reconstructs delivery orders from
  // this guarantee, so it is asserted in every build type, not just
  // debug. Cancelled events consume a seq but never execute, preserving
  // strict monotonicity here.
  NVGAS_CHECK_MSG(
      !executed_any_ || t > last_exec_at_ ||
          (t == last_exec_at_ && seq > last_exec_seq_),
      "event execution violated the pinned (time, seq) total order");
  last_exec_at_ = t;
  last_exec_seq_ = seq;
  executed_any_ = true;
  Callback fn = std::move(n.fn);
  // Recycle before invoking: the callback may schedule events and grow
  // the pool, invalidating the reference.
  recycle(idx);
  note_executed(t, seq);
  fn();
}


bool Engine::step() {
  const std::int32_t idx = pop_next(/*bounded=*/false, 0);
  if (idx < 0) return false;
  execute(idx);
  return true;
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events) {
    const std::int32_t idx = pop_next(/*bounded=*/false, 0);
    if (idx < 0) break;
    execute(idx);
    ++n;
  }
  return n;
}

std::uint64_t Engine::run_until(Time deadline) {
  std::uint64_t n = 0;
  while (true) {
    const std::int32_t idx = pop_next(/*bounded=*/true, deadline);
    if (idx < 0) break;
    execute(idx);
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace nvgas::sim
