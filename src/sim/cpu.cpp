#include "sim/cpu.hpp"

#include <algorithm>

namespace nvgas::sim {

Cpu::Cpu(Engine& engine, int node, int workers, Counters& counters,
         Trace* trace)
    : engine_(engine), node_(node), counters_(counters), trace_(trace) {
  NVGAS_CHECK(workers >= 1);
  avail_.assign(static_cast<std::size_t>(workers), 0);
}

std::size_t Cpu::earliest_worker() const {
  return static_cast<std::size_t>(
      std::min_element(avail_.begin(), avail_.end()) - avail_.begin());
}

void Cpu::submit(Task fn) {
  queue_.push_back(std::move(fn));
  pump();
}

std::int32_t Cpu::park_delayed(Task fn) {
  std::int32_t idx;
  if (delayed_free_ >= 0) {
    idx = delayed_free_;
    delayed_free_ = delayed_[static_cast<std::size_t>(idx)].next_free;
#ifdef NVGAS_SIMSAN
    NVGAS_CHECK_MSG(!delayed_[static_cast<std::size_t>(idx)].parked,
                    "SimSan: free list holds a parked Cpu task slot");
#endif
  } else {
    delayed_.emplace_back();
    idx = static_cast<std::int32_t>(delayed_.size() - 1);
  }
  delayed_[static_cast<std::size_t>(idx)].fn = std::move(fn);
#ifdef NVGAS_SIMSAN
  delayed_[static_cast<std::size_t>(idx)].parked = true;
#endif
  return idx;
}

Task Cpu::unpark_delayed(std::int32_t idx) {
  Delayed& d = delayed_[static_cast<std::size_t>(idx)];
#ifdef NVGAS_SIMSAN
  NVGAS_CHECK_MSG(d.parked,
                  "SimSan: use-after-recycle — unpark of a free Cpu task slot");
  d.parked = false;
#endif
  Task fn = std::move(d.fn);
#ifdef NVGAS_SIMSAN
  d.fn.poison();  // a stale unpark would invoke a poisoned task
#endif
  d.next_free = delayed_free_;
  delayed_free_ = idx;
  return fn;
}

void Cpu::submit_at(Time t, Task fn) {
  if (t <= engine_.now()) {
    submit(std::move(fn));
    return;
  }
  const std::int32_t idx = park_delayed(std::move(fn));
  engine_.at(t, [this, idx] { submit(unpark_delayed(idx)); });
}

void Cpu::pump() {
  // Tasks may submit further tasks; the outer pump's loop will pick those
  // up, so re-entering here would only deepen the stack.
  if (pumping_) return;
  pumping_ = true;
  struct Unset {
    bool& flag;
    ~Unset() { flag = false; }
  } unset{pumping_};

  while (!queue_.empty()) {
    const std::size_t w = earliest_worker();
    const Time start = std::max(engine_.now(), avail_[w]);
    if (start > engine_.now()) {
      // All workers busy: wake when the earliest frees up.
      if (!wake_scheduled_ || wake_at_ > start) {
        wake_scheduled_ = true;
        wake_at_ = start;
        engine_.at(start, [this] {
          wake_scheduled_ = false;
          pump();
        });
      }
      return;
    }
    Task fn = std::move(queue_.front());
    queue_.pop_front();
    TaskCtx ctx(*this, start);
    fn(ctx);
    avail_[w] = start + ctx.charged();
    if (trace_ != nullptr) {
      trace_->record(start, TraceEvent::kCpuTask, node_, -1, ctx.charged());
    }
    busy_ns_ += ctx.charged();
    counters_.cpu_busy_ns += ctx.charged();
    ++tasks_run_;
    ++counters_.cpu_tasks;
  }
}

}  // namespace nvgas::sim
