// Fiber: the coroutine type for runtime actions and spawned tasks.
//
// A fiber is a fire-and-forget C++20 coroutine pinned to one simulated
// node. It starts eagerly inside the CPU task that created it (so its
// first segment is accounted to that task) and suspends by awaiting LCOs
// or network completions; each resumption is a fresh CPU task on its
// node, giving correct simulated-time accounting across suspension
// points.
//
// Convention: every fiber function takes `Context&` as its first
// parameter (after the closure object, for lambdas). The promise
// constructor harvests the node and runtime from it.
#pragma once

#include <coroutine>

#include "util/assert.hpp"

namespace nvgas::rt {

class Runtime;
class Context;

namespace detail {
// Defined in context.hpp to avoid a cycle.
Runtime& runtime_of(Context& ctx);
int node_of(Context& ctx);
// Defined in runtime.cpp: closure-retention handshake (see below).
std::uint64_t take_pending_spawn_slot(Runtime& rt, int node);
void fiber_finished(Runtime& rt, std::uint64_t slot);
}  // namespace detail

class Fiber {
 public:
  struct promise_type {
    Runtime* runtime = nullptr;
    int node = -1;
    // Nonzero when this fiber was started through Runtime::spawn*: the id
    // of the runtime-retained closure that owns the lambda's captures.
    // A capturing lambda coroutine does NOT copy its closure into the
    // coroutine frame — the frame references the closure object — so the
    // runtime must keep that object alive until the fiber completes. The
    // promise destructor (which runs exactly at fiber completion)
    // releases it.
    std::uint64_t spawn_slot = 0;

    // Free-function fibers: Fiber f(Context& ctx, ...).
    template <typename... Rest>
    explicit promise_type(Context& ctx, Rest&&...)
        : runtime(&detail::runtime_of(ctx)), node(detail::node_of(ctx)) {
      spawn_slot = detail::take_pending_spawn_slot(*runtime, node);
    }

    // Lambdas / member functions: the object parameter comes first.
    template <typename Obj, typename... Rest>
    promise_type(Obj&&, Context& ctx, Rest&&...)
        : runtime(&detail::runtime_of(ctx)), node(detail::node_of(ctx)) {
      spawn_slot = detail::take_pending_spawn_slot(*runtime, node);
    }

    promise_type(const promise_type&) = delete;
    promise_type& operator=(const promise_type&) = delete;

    ~promise_type() {
      if (runtime != nullptr && spawn_slot != 0) {
        detail::fiber_finished(*runtime, spawn_slot);
      }
    }

    Fiber get_return_object() { return Fiber{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      ::nvgas::util::panic(__FILE__, __LINE__, "unhandled exception in fiber");
    }
  };

  using Handle = std::coroutine_handle<promise_type>;
};

}  // namespace nvgas::rt
