// Local Control Objects (LCOs): the synchronization primitives of the
// message-driven runtime (HPX-5 vocabulary).
//
// An LCO lives on one node. Fibers `co_await` it; setting it resumes the
// waiters as CPU tasks at the set time. Remote nodes contribute through
// the runtime's built-in lco-set action (see Runtime::lco_ref /
// Context::set_remote).
#pragma once

#include <concepts>
#include <cstdint>
#include <vector>

#include "rt/fiber.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/buffer.hpp"
#include "util/inline_function.hpp"

namespace nvgas::rt {

class Runtime;

namespace detail {
// Defined in runtime.cpp; kept free so LCO templates stay header-only
// without needing Runtime's definition.
void resume_fiber_at(Runtime& rt, int node, Fiber::Handle h, sim::Time t);
}  // namespace detail

// Reference to an LCO registered with its node's runtime, shippable in
// parcels.
struct LcoRef {
  int node = -1;
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return node >= 0 && id != 0; }
};

class LcoBase {
 public:
  LcoBase() = default;
  LcoBase(const LcoBase&) = delete;
  LcoBase& operator=(const LcoBase&) = delete;
  virtual ~LcoBase() = default;

  [[nodiscard]] bool triggered() const { return triggered_; }
  [[nodiscard]] sim::Time trigger_time() const { return trigger_time_; }

  void add_waiter(Fiber::Handle h) {
    NVGAS_CHECK_MSG(!triggered_, "awaiting an already-triggered LCO");
    waiters_.push_back(h);
  }

  // Remote contribution entry point, driven by the built-in lco-set
  // action. Payload semantics are LCO-type-specific.
  virtual void remote_contribute(sim::Time t, util::Buffer::Reader& r) = 0;

 protected:
  void fire(sim::Time t) {
    NVGAS_CHECK_MSG(!triggered_, "LCO fired twice");
    triggered_ = true;
    trigger_time_ = t;
    // Detach ALL state before resuming anyone: a resumed fiber may run
    // inline (the CPU model executes same-time tasks synchronously when a
    // worker is free), and it may destroy this LCO and construct a new
    // one at the same address — so `this` must not be touched after the
    // first resume, and clearing members afterwards would corrupt the
    // successor object.
    std::vector<Fiber::Handle> waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) {
      auto& p = h.promise();
      detail::resume_fiber_at(*p.runtime, p.node, h, t);
    }
  }

 private:
  bool triggered_ = false;
  sim::Time trigger_time_ = 0;
  std::vector<Fiber::Handle> waiters_;
};

// ---------------------------------------------------------------------------
// Event: a void future. Set once; all waiters resume.
// ---------------------------------------------------------------------------
class Event : public LcoBase {
 public:
  void set(sim::Time t) { fire(t); }

  void remote_contribute(sim::Time t, util::Buffer::Reader&) override { set(t); }
};

// ---------------------------------------------------------------------------
// Future<T>: a single-assignment value.
// ---------------------------------------------------------------------------
template <typename T>
class Future : public LcoBase {
 public:
  void set(sim::Time t, T value) {
    value_ = std::move(value);
    fire(t);
  }

  [[nodiscard]] const T& value() const {
    NVGAS_CHECK_MSG(triggered(), "reading an unset future");
    return value_;
  }

  void remote_contribute(sim::Time t, util::Buffer::Reader& r) override {
    if constexpr (std::is_trivially_copyable_v<T>) {
      set(t, r.get<T>());
    } else {
      NVGAS_CHECK_MSG(false, "remote set of non-trivial future");
    }
  }

 private:
  T value_{};
};

// ---------------------------------------------------------------------------
// AndGate: triggers after N arrivals (HPX "and" LCO).
// ---------------------------------------------------------------------------
class AndGate : public LcoBase {
 public:
  explicit AndGate(std::uint64_t inputs) : remaining_(inputs) {
    NVGAS_CHECK(inputs > 0);
  }

  void arrive(sim::Time t) {
    NVGAS_CHECK_MSG(remaining_ > 0, "AndGate over-arrived");
    if (--remaining_ == 0) fire(t);
  }

  [[nodiscard]] std::uint64_t remaining() const { return remaining_; }

  void remote_contribute(sim::Time t, util::Buffer::Reader&) override { arrive(t); }

 private:
  std::uint64_t remaining_;
};

// ---------------------------------------------------------------------------
// ReduceLco<T>: N contributions combined with a binary op; the reduced
// value becomes readable when all contributions arrive.
// ---------------------------------------------------------------------------
template <typename T>
class ReduceLco : public LcoBase {
 public:
  using Op = util::InlineFunction<T(const T&, const T&)>;

  ReduceLco(std::uint64_t inputs, T init, Op op)
      : remaining_(inputs), acc_(std::move(init)), op_(std::move(op)) {
    NVGAS_CHECK(inputs > 0);
  }

  void contribute(sim::Time t, const T& value) {
    NVGAS_CHECK_MSG(remaining_ > 0, "ReduceLco over-contributed");
    acc_ = op_(acc_, value);
    if (--remaining_ == 0) fire(t);
  }

  [[nodiscard]] const T& value() const {
    NVGAS_CHECK_MSG(triggered(), "reading an incomplete reduction");
    return acc_;
  }

  void remote_contribute(sim::Time t, util::Buffer::Reader& r) override {
    static_assert(std::is_trivially_copyable_v<T>);
    contribute(t, r.get<T>());
  }

 private:
  std::uint64_t remaining_;
  T acc_;
  Op op_;
};

// ---------------------------------------------------------------------------
// The one LCO awaiter: ready once the LCO has triggered, otherwise the
// fiber parks on it; resumes with the LCO's value() when it has one.
// ---------------------------------------------------------------------------
template <typename Lco>
struct LcoAwaiter {
  Lco& lco;
  [[nodiscard]] bool await_ready() const { return lco.triggered(); }
  void await_suspend(Fiber::Handle h) { lco.add_waiter(h); }
  auto await_resume() const {
    if constexpr (requires { lco.value(); }) {
      return lco.value();
    } else {
      return;
    }
  }
};

template <std::derived_from<LcoBase> Lco>
[[nodiscard]] LcoAwaiter<Lco> operator co_await(Lco& lco) {
  return {lco};
}

}  // namespace nvgas::rt
