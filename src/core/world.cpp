#include "core/world.hpp"

#include <limits>
#include <sstream>

#include "gas/agas_net.hpp"
#include "gas/agas_sw.hpp"
#include "gas/pgas.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nvgas {

// Every node id the GVA format can address must fit a trace record.
static_assert(gas::Gva::kMaxNodes - 1 <=
                  std::numeric_limits<decltype(sim::TraceRecord::node)>::max(),
              "sim::TraceRecord::node cannot hold every GVA creator id");

util::Buffer encode_apply(Gva addr, rt::ActionId action, util::Buffer args) {
  args.prepend<rt::ActionId>(action);
  args.prepend<std::uint64_t>(addr.bits());
  return args;
}

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
  runtime_ = std::make_unique<rt::Runtime>(*fabric_, *endpoints_);
  coll_ = std::make_unique<rt::Collectives>(*runtime_, cfg_.coll_algo);
  heap_ = std::make_unique<gas::GlobalHeap>(*fabric_);

  switch (cfg_.gas_mode) {
    case GasMode::kPgas:
      gas_ = std::make_unique<gas::Pgas>(*fabric_, *endpoints_, *heap_);
      break;
    case GasMode::kAgasSw:
      gas_ = std::make_unique<gas::AgasSw>(*fabric_, *endpoints_, *heap_,
                                           cfg_.gas_costs);
      break;
    case GasMode::kAgasNet:
      gas_ = std::make_unique<gas::AgasNet>(*fabric_, *endpoints_, *heap_,
                                            cfg_.agas_net);
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

  // The apply trampoline, and the one decoder of encode_apply()'s
  // [u64 gva][ActionId][args...]. The receiving runtime re-resolves the
  // address; if the object has moved since the sender's (possibly stale)
  // translation, the parcel is forwarded — the software analogue of the
  // NIC-level forwarding on the data path, and how message-driven
  // runtimes keep parcels converging on mobile objects. A forward also
  // repairs the translation of `src`, the hop's sender, whose stale
  // entry chose this node (GasBase::repair_sender), so its next parcel
  // goes straight to the owner.
  const rt::ActionId apply_id = runtime_->actions().add(
      "nvgas.apply",
      [this](rt::Context& c, int src, util::Buffer args) {
        auto r = args.reader();
        const Gva gva(r.get<std::uint64_t>());
        const auto action = r.get<rt::ActionId>();
        args.drop_front(sizeof(std::uint64_t) + sizeof(rt::ActionId));
        const int node = c.rank();
        sim::TaskCtx* task = runtime_->current_task(node);
        NVGAS_CHECK(task != nullptr);
        gas_->resolve(
            *task, node, gva,
            [this, node, src, gva, action,
             rest = std::move(args)](sim::Time t, int owner) mutable {
              if (owner == node) {
                runtime_->invoke_action_at(node, t, action, src, std::move(rest));
                return;
              }
              // The repair leaves first: every parcel `src` sends before
              // it lands takes the same extra hop.
              ++fabric_->counters().apply_forwards;
              gas_->repair_sender(t, node, src, gva);
              runtime_->send_parcel_at(node, t, owner, runtime_->apply_action(),
                                       encode_apply(gva, action, std::move(rest)));
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

void World::run_spmd(rt::SpawnFn fn) {
  for (int r = 0; r < ranks(); ++r) {
    runtime_->spawn(r, fn);
  }
  run();
  NVGAS_CHECK_MSG(runtime_->live_fibers() == 0,
                  "run_spmd: fibers still suspended after drain (deadlock)");
}

}  // namespace nvgas
