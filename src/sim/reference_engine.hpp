// Frozen copy of the seed event engine: std::function callbacks in a
// binary heap. Kept verbatim (modulo the class name) as the behavioral
// oracle for the production timing-wheel Engine — the determinism
// regression test replays identical schedules through both and asserts
// trace_hash() equality. Do not "improve" this file; its value is that it
// does not change.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace nvgas::sim {

class ReferenceEngine {
 public:
  // simlint:allow(D4: frozen reference oracle, correctness only — never benchmarked)
  using Callback = std::function<void()>;

  ReferenceEngine() = default;
  ReferenceEngine(const ReferenceEngine&) = delete;
  ReferenceEngine& operator=(const ReferenceEngine&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  void at(Time t, Callback fn) {
    NVGAS_CHECK_MSG(t >= now_, "scheduling into the past");
    heap_.push(Event{t, next_seq_++, std::move(fn)});
  }

  void after(Time delay, Callback fn) { at(now_ + delay, std::move(fn)); }

  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::uint64_t trace_hash() const { return trace_hash_; }

  bool step() {
    if (heap_.empty()) return false;
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    NVGAS_DCHECK(ev.at >= now_);
    now_ = ev.at;
    note_executed(ev);
    ev.fn();
    return true;
  }

  std::uint64_t run(std::uint64_t max_events = ~0ULL) {
    std::uint64_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  std::uint64_t run_until(Time deadline) {
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.top().at <= deadline) {
      step();
      ++n;
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void note_executed(const Event& ev) {
    ++executed_;
    auto mix = [this](std::uint64_t v) {
      trace_hash_ ^= v;
      trace_hash_ *= 0x100000001b3ULL;
    };
    mix(ev.at);
    mix(ev.seq);
  }

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t trace_hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace nvgas::sim
