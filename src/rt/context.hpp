// Context: the per-node handle through which fibers touch the runtime —
// cost charging, parcel sends, LCO registration, sleeping.
//
// The GAS layers (src/gas, src/core) extend it through the `gas` hook so
// the runtime stays independent of address-space management.
#pragma once

#include <cstdint>

#include "rt/action.hpp"
#include "rt/fiber.hpp"
#include "rt/lco.hpp"
#include "sim/time.hpp"
#include "util/buffer.hpp"

namespace nvgas::gas {
class GasBase;  // installed by core::World
}

namespace nvgas::rt {

class Runtime;

class Context {
 public:
  Context(Runtime& rt, int node) : runtime_(&rt), node_(node) {}
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] int rank() const { return node_; }
  [[nodiscard]] int ranks() const;
  [[nodiscard]] Runtime& runtime() { return *runtime_; }

  // --- simulated-cost accounting (valid only inside a fiber segment) ----
  void charge(sim::Time ns);
  [[nodiscard]] sim::Time now() const;

  // --- parcels -----------------------------------------------------------
  // Fire-and-forget active message. Charges the descriptor-post cost.
  void send(int dst, ActionId action, util::Buffer args = {});

  // --- fiber spawning ----------------------------------------------------
  void spawn(int node, SpawnFn fn);

  // --- LCOs --------------------------------------------------------------
  // Register `lco` for remote setting; returns a shippable reference.
  LcoRef make_ref(LcoBase& lco);
  // Unregister a node-local reference (after the LCO's last use; the
  // registry stores raw pointers, so short-lived LCOs must deregister).
  void release_ref(LcoRef ref);
  // Contribute to a (possibly remote) LCO; `value` layout is LCO-specific.
  void set_lco(LcoRef ref, util::Buffer value = {});

  // --- time --------------------------------------------------------------
  [[nodiscard]] auto sleep(sim::Time ns) {
    struct Awaiter {
      Context& ctx;
      sim::Time wake;
      [[nodiscard]] bool await_ready() const { return false; }
      void await_suspend(Fiber::Handle h) const {
        detail::resume_fiber_at(*h.promise().runtime, h.promise().node, h, wake);
      }
      void await_resume() const {}
    };
    return Awaiter{*this, now() + ns};
  }

  // GAS extension hook, owned by core::World.
  gas::GasBase* gas = nullptr;

 private:
  Runtime* runtime_;
  int node_;
};

namespace detail {
inline Runtime& runtime_of(Context& ctx) { return ctx.runtime(); }
inline int node_of(Context& ctx) { return ctx.rank(); }
}  // namespace detail

}  // namespace nvgas::rt
