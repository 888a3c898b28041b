// Per-node CPU model.
//
// A node owns `workers` schedulable hardware threads. Runtime work is
// submitted as tasks; a task executes at the earliest time a worker is
// free and occupies that worker for the cost it charges via TaskCtx.
// Host-side execution of the task body is instantaneous (it is C++ code
// running inside one engine event); only charged cost advances simulated
// time. This separates "what the protocol does" from "what it costs", so
// the cost model is explicit and auditable at each charge site.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/counters.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "util/inline_function.hpp"

namespace nvgas::sim {

class Cpu;

// Execution context of one task segment. `now()` is the effective current
// simulated time inside the segment: the segment's start plus everything
// charged so far — message departures use it so that work preceding a send
// delays the send.
class TaskCtx {
 public:
  TaskCtx(Cpu& cpu, Time start) : cpu_(&cpu), start_(start) {}

  void charge(Time ns) { charged_ += ns; }
  [[nodiscard]] Time start() const { return start_; }
  [[nodiscard]] Time charged() const { return charged_; }
  [[nodiscard]] Time now() const { return start_ + charged_; }
  [[nodiscard]] Cpu& cpu() const { return *cpu_; }

 private:
  Cpu* cpu_;
  Time start_;
  Time charged_ = 0;
};

// Move-only with 48-byte inline storage: submitting a task does not
// allocate unless the capture exceeds the buffer.
using Task = util::InlineFunction<void(TaskCtx&), 48>;

class Cpu {
 public:
  Cpu(Engine& engine, int node, int workers, Counters& counters,
      Trace* trace = nullptr);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  // Run `fn` as soon as a worker is free (FIFO among submitted tasks).
  void submit(Task fn);

  // Run `fn` no earlier than absolute time `t`.
  void submit_at(Time t, Task fn);

  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] int workers() const { return static_cast<int>(avail_.size()); }
  [[nodiscard]] Time busy_ns() const { return busy_ns_; }
  [[nodiscard]] std::uint64_t tasks_run() const { return tasks_run_; }
  [[nodiscard]] std::size_t queue_depth() const { return queued_; }

 private:
  void pump();
  void push_ready(Task fn);
  Task pop_ready();
  std::size_t earliest_worker() const;

  // Parking pool for submit_at: the task waits here so the engine
  // callback captures only {this, slot} and stays inside the
  // Engine::Callback inline buffer (no heap allocation per deferral).
  struct Delayed {
    Task fn;
    std::int32_t next_free = -1;
#ifdef NVGAS_SIMSAN
    bool parked = false;  // occupancy audit: unpark of a free slot aborts
#endif
  };
  std::int32_t park_delayed(Task fn);
  Task unpark_delayed(std::int32_t idx);

 public:
#ifdef NVGAS_SIMSAN
  // Death-test hook: unpark a slot out of band, so tests can prove the
  // double-unpark / use-after-recycle audit aborts. Tests only.
  void simsan_unpark_slot(std::int32_t idx) { (void)unpark_delayed(idx); }
#endif

 private:

  Engine& engine_;
  int node_;
  Counters& counters_;
  Trace* trace_;
  std::vector<Time> avail_;        // per-worker next-free time
  // Ready tasks, FIFO: a ring whose size is zero until the first task,
  // then a power of two; `queued_` tasks start at ring_[ring_head_].
  std::vector<Task> ring_;
  std::size_t ring_head_ = 0;
  std::size_t queued_ = 0;
  std::vector<Delayed> delayed_;
  std::int32_t delayed_free_ = -1;
  Time wake_at_ = 0;
  bool wake_scheduled_ = false;
  bool pumping_ = false;
  Time busy_ns_ = 0;
  std::uint64_t tasks_run_ = 0;
};

}  // namespace nvgas::sim
