#include "rt/runtime.hpp"

#include <utility>

namespace nvgas::rt {

CurrentTaskScope::CurrentTaskScope(Runtime& rt, sim::TaskCtx& task)
    : rt_(rt),
      node_(task.cpu().node()),
      prev_(rt.current_task(task.cpu().node())) {
  rt_.set_current(node_, &task);
}
CurrentTaskScope::~CurrentTaskScope() { rt_.set_current(node_, prev_); }

Runtime::Runtime(sim::Fabric& fabric, net::EndpointGroup& endpoints,
                 RtCosts costs)
    : fabric_(&fabric), endpoints_(&endpoints), costs_(costs) {
  // protolint:allow(P4: simulator-host array, one runtime state per simulated node)
  states_.resize(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    states_[static_cast<std::size_t>(n)].ctx = std::make_unique<Context>(*this, n);
    endpoints_->at(n).set_parcel_handler(
        [this, n](sim::TaskCtx& tctx, int src, util::Buffer payload) {
          dispatch(n, tctx, src, std::move(payload));
        });
  }

  // Built-in: remote LCO contribution. Payload: [u64 lco_id][value...].
  lco_set_action_ = actions_.add(
      "nvgas.lco_set", [this](Context& c, int /*src*/, util::Buffer args) {
        auto r = args.reader();
        const auto id = r.get<std::uint64_t>();
        LcoBase* lco = find_lco(c.rank(), id);
        NVGAS_CHECK_MSG(lco != nullptr, "lco_set for unknown LCO");
        c.charge(costs_.lco_set_ns);
        lco->remote_contribute(c.now(), r);
      });
}

void Runtime::spawn_at(int node, sim::Time not_before,
                       std::function<Fiber(Context&)> fn) {
  // Retain the closure until the fiber completes; the coroutine frame
  // references it rather than copying it.
  auto& st = states_.at(static_cast<std::size_t>(node));
  const std::uint64_t slot = st.next_spawn_slot++;
  auto holder = std::make_unique<std::function<Fiber(Context&)>>(std::move(fn));
  auto* fptr = holder.get();
  st.spawned.emplace(slot, std::move(holder));

  fabric_->cpu(node).submit_at(
      not_before, [this, node, slot, fptr](sim::TaskCtx& tctx) {
        CurrentTaskScope scope(*this, tctx);
        tctx.charge(costs_.spawn_ns);
        auto& ns = states_.at(static_cast<std::size_t>(node));
        ns.pending_spawn_slot = slot;
        (void)(*fptr)(ctx(node));  // eager start: first segment runs here
        ns.pending_spawn_slot = 0;
      });
}

void Runtime::fiber_finished(int node, std::uint64_t slot) {
  // Defer: the completing fiber may still be executing inside the very
  // std::function we are about to destroy.
  auto& engine = fabric_->engine();
  engine.at(engine.now(), [this, node, slot] {
    states_.at(static_cast<std::size_t>(node)).spawned.erase(slot);
  });
}

void Runtime::send_parcel_at(int src, sim::Time depart, int dst,
                             ActionId action, util::Buffer args) {
  util::Buffer payload;
  payload.put<ActionId>(action);
  payload.append_raw(args.bytes());
  endpoints_->at(src).send_parcel(depart, dst, std::move(payload));
}

void Runtime::invoke_action_at(int node, sim::Time t, ActionId action, int src,
                               util::Buffer args) {
  fabric_->cpu(node).submit_at(
      t, [this, node, action, src, args = std::move(args)](sim::TaskCtx& tctx) mutable {
        CurrentTaskScope scope(*this, tctx);
        tctx.charge(costs_.action_dispatch_ns);
        actions_.handler(action)(ctx(node), src, std::move(args));
      });
}

void Runtime::dispatch(int node, sim::TaskCtx& tctx, int src,
                       util::Buffer payload) {
  CurrentTaskScope scope(*this, tctx);
  tctx.charge(costs_.action_dispatch_ns);
  auto r = payload.reader();
  const auto action = r.get<ActionId>();
  // Hand the handler its own copy of the remaining bytes so a suspending
  // fiber can outlive this dispatch frame.
  util::Buffer args;
  args.append_raw(std::span<const std::byte>(
      payload.bytes().data() + sizeof(ActionId),
      payload.size() - sizeof(ActionId)));
  actions_.handler(action)(ctx(node), src, std::move(args));
}

LcoRef Runtime::register_lco(int node, LcoBase& lco) {
  auto& st = states_.at(static_cast<std::size_t>(node));
  const std::uint64_t id = st.next_lco_id++;
  st.lcos.emplace(id, &lco);
  return LcoRef{node, id};
}

void Runtime::ledger_set(LcoRef ref, sim::Time t) {
  LcoBase* lco = find_lco(ref.node, ref.id);
  NVGAS_CHECK_MSG(lco != nullptr, "ledger_set for unknown LCO");
  util::Buffer empty;
  auto r = empty.reader();
  lco->remote_contribute(t, r);
}

LcoBase* Runtime::find_lco(int node, std::uint64_t id) {
  auto& st = states_.at(static_cast<std::size_t>(node));
  const auto it = st.lcos.find(id);
  return it == st.lcos.end() ? nullptr : it->second;
}

void Runtime::release_lco(int node, std::uint64_t id) {
  states_.at(static_cast<std::size_t>(node)).lcos.erase(id);
}

void Runtime::resume_fiber_at(int node, Fiber::Handle h, sim::Time not_before) {
  fabric_->cpu(node).submit_at(not_before, [this, h](sim::TaskCtx& tctx) {
    CurrentTaskScope scope(*this, tctx);
    tctx.charge(costs_.fiber_resume_ns);
    h.resume();
  });
}

// --- Context methods needing Runtime's definition --------------------------

int Context::ranks() const { return runtime_->nodes(); }

void Context::charge(sim::Time ns) {
  sim::TaskCtx* task = runtime_->current_task(node_);
  NVGAS_CHECK_MSG(task != nullptr, "charge() outside a fiber segment");
  task->charge(ns);
}

sim::Time Context::now() const {
  sim::TaskCtx* task = runtime_->current_task(node_);
  NVGAS_CHECK_MSG(task != nullptr, "now() outside a fiber segment");
  return task->now();
}

void Context::send(int dst, ActionId action, util::Buffer args) {
  charge(runtime_->endpoints().at(node_).post_cost());
  runtime_->send_parcel_at(node_, now(), dst, action, std::move(args));
}

void Context::spawn(int node, std::function<Fiber(Context&)> fn) {
  runtime_->spawn_at(node, now(), std::move(fn));
}

LcoRef Context::make_ref(LcoBase& lco) {
  return runtime_->register_lco(node_, lco);
}

void Context::release_ref(LcoRef ref) {
  NVGAS_CHECK_MSG(ref.node == node_, "release_ref on a foreign node's LCO");
  runtime_->release_lco(ref.node, ref.id);
}

void Context::set_lco(LcoRef ref, util::Buffer value) {
  NVGAS_CHECK(ref.valid());
  if (ref.node == node_) {
    // Local fast path: no parcel, just the LCO transition cost.
    charge(runtime_->costs().lco_set_ns);
    LcoBase* lco = runtime_->find_lco(node_, ref.id);
    NVGAS_CHECK_MSG(lco != nullptr, "set_lco for unknown local LCO");
    auto r = value.reader();
    lco->remote_contribute(now(), r);
    return;
  }
  util::Buffer args;
  args.put<std::uint64_t>(ref.id);
  args.append_raw(value.bytes());
  send(ref.node, runtime_->lco_set_action(), std::move(args));
}

// --- detail hooks used by lco.hpp ------------------------------------------

namespace detail {

void resume_fiber_at(Runtime& rt, int node, Fiber::Handle h, sim::Time t) {
  rt.resume_fiber_at(node, h, t);
}

std::uint64_t take_pending_spawn_slot(Runtime& rt, int node) {
  return rt.take_pending_spawn_slot(node);
}

void fiber_finished(Runtime& rt, int node, std::uint64_t slot) {
  rt.fiber_finished(node, slot);
}

void run_event_at(Runtime& rt, sim::Time t, std::function<void(sim::Time)> fn) {
  auto& engine = rt.fabric().engine();
  const sim::Time when = std::max(t, engine.now());
  engine.at(when, [when, fn = std::move(fn)] { fn(when); });
}

}  // namespace detail
}  // namespace nvgas::rt
