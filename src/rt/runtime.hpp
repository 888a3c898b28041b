// Runtime: the message-driven runtime tying parcels, actions, fibers and
// LCOs to the simulated cluster.
//
// One Runtime spans all simulated nodes (it is the distributed runtime
// instance, not a per-node object). Per-node state — Context, LCO
// registry — lives in NodeState.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/endpoint.hpp"
#include "rt/action.hpp"
#include "rt/context.hpp"
#include "rt/costs.hpp"
#include "rt/fiber.hpp"
#include "rt/lco.hpp"
#include "sim/fabric.hpp"

namespace nvgas::rt {

class Runtime {
 public:
  Runtime(sim::Fabric& fabric, net::EndpointGroup& endpoints);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] sim::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] net::EndpointGroup& endpoints() { return *endpoints_; }
  [[nodiscard]] ActionRegistry& actions() { return actions_; }
  [[nodiscard]] int nodes() const { return fabric_->nodes(); }
  [[nodiscard]] Context& ctx(int node) {
    return *states_.at(static_cast<std::size_t>(node)).ctx;
  }

  // Spawn a fiber on `node`, starting no earlier than `not_before`.
  void spawn_at(int node, sim::Time not_before, std::function<Fiber(Context&)> fn);
  void spawn(int node, std::function<Fiber(Context&)> fn) {
    spawn_at(node, 0, std::move(fn));
  }

  // Send a parcel [action|args] from `src` departing at `depart`.
  void send_parcel_at(int src, sim::Time depart, int dst, ActionId action,
                      util::Buffer args);

  // Run an action handler as a fresh CPU task on `node` (used by
  // software-forwarding layers such as the GAS apply trampoline).
  void invoke_action_at(int node, sim::Time t, ActionId action, int src,
                        util::Buffer args);

  // The GAS layer's apply trampoline (registered by core::World; invalid
  // until then).
  [[nodiscard]] ActionId apply_action() const { return apply_action_; }
  void set_apply_action(ActionId id) { apply_action_ = id; }

  // --- LCO registry -------------------------------------------------------
  LcoRef register_lco(int node, LcoBase& lco);

  // Ledger-style set: trigger a registered LCO at time `t` directly from
  // network/NIC context (no CPU task; waiters still resume as CPU tasks).
  // Models Photon's remote-completion ledger delivery.
  void ledger_set(LcoRef ref, sim::Time t);
  [[nodiscard]] LcoBase* find_lco(int node, std::uint64_t id);
  void release_lco(int node, std::uint64_t id);

  // Built-in action used by Context::set_lco for remote contributions.
  [[nodiscard]] ActionId lco_set_action() const { return lco_set_action_; }

  // --- fiber scheduling internals ----------------------------------------
  void resume_fiber_at(int node, Fiber::Handle h, sim::Time not_before);
  // The TaskCtx currently executing on `node` (null outside a task
  // segment).
  [[nodiscard]] sim::TaskCtx* current_task(int node) const {
    return states_.at(static_cast<std::size_t>(node)).current;
  }

  // Closure-retention handshake with Fiber::promise_type (internal; see
  // the promise docs in fiber.hpp). Each spawned closure sits in a
  // recycled slot of a deque, whose growth never moves a slot;
  // reclamation is deferred to a later engine event so a synchronously
  // completing fiber never destroys the closure it is running in.
  std::uint64_t take_pending_spawn_slot(int node) {
    auto& st = states_.at(static_cast<std::size_t>(node));
    const auto slot = st.pending_spawn_slot;
    st.pending_spawn_slot = 0;
    return slot;
  }
  void fiber_finished(std::uint64_t slot);

  // Spawned fibers that have not yet completed. Zero after a full drain
  // means every spawned fiber ran to completion (deadlock detector).
  [[nodiscard]] std::size_t live_fibers() const { return live_fibers_; }

 private:
  friend class Context;
  friend class CurrentTaskScope;

  void set_current(int node, sim::TaskCtx* task) {
    states_.at(static_cast<std::size_t>(node)).current = task;
  }
  void dispatch(int node, sim::TaskCtx& tctx, int src, util::Buffer payload);

  struct NodeState {
    std::unique_ptr<Context> ctx;
    // simlint:allow(D1: keyed by LCO id, find/erase only, never iterated)
    std::unordered_map<std::uint64_t, LcoBase*> lcos;
    std::uint64_t next_lco_id = 1;
    // Fiber machinery.
    sim::TaskCtx* current = nullptr;
    std::uint64_t pending_spawn_slot = 0;
  };

  // A spawned fiber's closure, kept alive until the fiber finishes. Slot
  // ids are deque index + 1, so 0 means "not spawned".
  struct SpawnSlot {
    std::function<Fiber(Context&)> fn;
    std::uint64_t next_free = 0;  // free-list link while the slot is idle
  };

  sim::Fabric* fabric_;
  net::EndpointGroup* endpoints_;
  ActionRegistry actions_;
  std::vector<NodeState> states_;
  std::deque<SpawnSlot> spawn_slots_;
  std::uint64_t spawn_free_ = 0;  // head of the idle-slot list
  std::size_t live_fibers_ = 0;
  ActionId lco_set_action_ = kInvalidAction;
  ActionId apply_action_ = kInvalidAction;
};

// Install `task` as the current TaskCtx of its node for the duration of
// a scope (the node comes from the task's CPU).
class CurrentTaskScope {
 public:
  CurrentTaskScope(Runtime& rt, sim::TaskCtx& task);
  ~CurrentTaskScope();
  CurrentTaskScope(const CurrentTaskScope&) = delete;
  CurrentTaskScope& operator=(const CurrentTaskScope&) = delete;

 private:
  Runtime& rt_;
  int node_;
  sim::TaskCtx* prev_;
};

}  // namespace nvgas::rt
