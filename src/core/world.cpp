#include "core/world.hpp"

#include <sstream>

#include "gas/agas_sw.hpp"
#include "gas/pgas.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nvgas {

World::World(const Config& cfg) : cfg_(cfg) {
  NVGAS_CHECK_MSG(cfg_.machine.nodes <= gas::Gva::kMaxNodes,
                  "node count exceeds the GVA creator field");
  fabric_ = std::make_unique<sim::Fabric>(cfg_.machine);
  if (cfg_.faults.active()) {
    // Armed BEFORE any traffic exists. An inactive plan installs nothing:
    // Fabric::faults() stays null, and the whole fault/retransmission
    // machinery is structurally absent from the event stream.
    faults_ = std::make_unique<sim::FaultInjector>(cfg_.faults, *fabric_);
    fabric_->set_faults(faults_.get());
  }
  endpoints_ = std::make_unique<net::EndpointGroup>(*fabric_, cfg_.net);
  runtime_ = std::make_unique<rt::Runtime>(*fabric_, *endpoints_, cfg_.rt_costs);
  coll_ = std::make_unique<rt::Collectives>(*runtime_, cfg_.coll_algo);
  heap_ = std::make_unique<gas::GlobalHeap>(*fabric_);

  switch (cfg_.gas_mode) {
    case GasMode::kPgas:
      gas_ = std::make_unique<gas::Pgas>(*fabric_, *endpoints_, *heap_,
                                         cfg_.gas_costs);
      break;
    case GasMode::kAgasSw:
      gas_ = std::make_unique<gas::AgasSw>(*fabric_, *endpoints_, *heap_,
                                           cfg_.gas_costs);
      break;
    case GasMode::kAgasNet:
      gas_ = std::make_unique<core::AgasNet>(*fabric_, *endpoints_, *heap_,
                                             cfg_.gas_costs, cfg_.agas_net);
      break;
  }

  for (int n = 0; n < fabric_->nodes(); ++n) {
    runtime_->ctx(n).gas = gas_.get();
  }

  if (cfg_.lb.policy != lb::PolicyKind::kNone) {
    // Inert (observes nothing, schedules nothing) when the manager
    // cannot migrate, so e.g. a PGAS run stays byte-identical.
    balancer_ = std::make_unique<lb::Balancer>(*fabric_, *gas_, cfg_.lb);
  }

  // The apply trampoline: a parcel targeted at a GVA carries
  // [u64 gva][u32 action][args...]. The receiving runtime re-resolves the
  // address; if the object has moved since the sender's (possibly stale)
  // translation, the parcel is forwarded — the software analogue of the
  // NIC-level forwarding on the data path, and how message-driven
  // runtimes keep parcels converging on mobile objects.
  const rt::ActionId apply_id = runtime_->actions().add(
      "nvgas.apply",
      [this](rt::Context& c, int src, util::Buffer args) {
        auto r = args.reader();
        const Gva gva(r.get<std::uint64_t>());
        const auto action = r.get<rt::ActionId>();
        util::Buffer rest;
        rest.append_raw(r.rest());
        const int node = c.rank();
        sim::TaskCtx* task = runtime_->current_task(node);
        NVGAS_CHECK(task != nullptr);
        gas_->resolve(
            *task, node, gva,
            [this, node, src, gva, action,
             rest = std::move(rest)](sim::Time t, int owner) mutable {
              if (owner == node) {
                runtime_->invoke_action_at(node, t, action, src, std::move(rest));
                return;
              }
              util::Buffer fwd;
              fwd.put<std::uint64_t>(gva.bits());
              fwd.put<rt::ActionId>(action);
              fwd.append_raw(rest.bytes());
              runtime_->send_parcel_at(node, t, owner, runtime_->apply_action(),
                                       std::move(fwd));
            });
      });
  runtime_->set_apply_action(apply_id);
}

std::uint64_t World::run(std::uint64_t max_events) {
  return fabric_->engine().run(max_events);
}

std::string World::report() const {
  std::ostringstream oss;
  auto* self = const_cast<World*>(this);
  const double elapsed = static_cast<double>(self->fabric().engine().now());

  util::Table per_node("per-node breakdown");
  per_node.columns({"node", "cpu busy", "cpu util", "tasks", "nic tx", "nic rx",
                    "tx bytes", "heap in use"});
  for (int n = 0; n < ranks(); ++n) {
    auto& cpu = self->fabric().cpu(n);
    auto& nic = self->fabric().nic(n);
    const double util =
        elapsed > 0 ? static_cast<double>(cpu.busy_ns()) /
                          (elapsed * cfg_.machine.workers_per_node)
                    : 0.0;
    per_node.cell(static_cast<std::int64_t>(n))
        .cell(util::format_ns(static_cast<double>(cpu.busy_ns())))
        .cell(util * 100.0, 1)
        .cell(cpu.tasks_run())
        .cell(nic.tx_messages())
        .cell(nic.rx_messages())
        .cell(util::format_bytes(nic.tx_bytes()))
        .cell(util::format_bytes(self->heap().store(n).bytes_in_use()))
        .end_row();
  }
  per_node.print(oss);

  util::Table globals("global counters (nonzero)");
  globals.columns({"counter", "value"});
  const sim::Counters totals = self->fabric().counters();
  for (const auto& [name, value] : totals.items()) {
    if (value != 0) {
      globals.cell(name).cell(value).end_row();
    }
  }
  globals.print(oss);
  return oss.str();
}

void World::run_spmd(std::function<Fiber(Context&)> fn) {
  for (int r = 0; r < ranks(); ++r) {
    runtime_->spawn(r, fn);
  }
  run();
  NVGAS_CHECK_MSG(runtime_->live_fibers() == 0,
                  "run_spmd: fibers still suspended after drain (deadlock)");
}

}  // namespace nvgas
