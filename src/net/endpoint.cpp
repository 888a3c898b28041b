#include "net/endpoint.hpp"

#include <utility>

#include "net/reliability.hpp"
#include "util/assert.hpp"

namespace nvgas::net {

Endpoint::Endpoint(EndpointGroup& group, sim::Fabric& fabric, int node)
    : group_(group), fabric_(&fabric), node_(node) {}

// --------------------------------------------------------------------------
// put: source NIC -> wire -> target NIC command processor does the DMA
// write -> small ack back to the source. No target CPU task anywhere.
// --------------------------------------------------------------------------
void Endpoint::put(Time depart, int dst, Lva dst_lva,
                   std::vector<std::byte> data, OnDone on_complete,
                   OnDone on_remote) {
  ++fabric_->counters().rma_puts;
  const std::uint64_t bytes = kRmaHeaderBytes + data.size();
  Endpoint* target = &group_.at(dst);
  raw_send(depart, dst, bytes,
           [this, target, dst_lva, data = std::move(data),
            on_complete = std::move(on_complete),
            on_remote = std::move(on_remote)](Time arrived) mutable {
             target->nic_write(
                 arrived, dst_lva, std::move(data),
                 [this, target, on_complete = std::move(on_complete),
                  on_remote = std::move(on_remote)](Time done) mutable {
                   if (on_remote) on_remote(done);  // remote completion ledger
                   if (on_complete) {
                     target->raw_send(done, node_, kAckBytes,
                                      std::move(on_complete));
                   }
                 });
           });
}

// --------------------------------------------------------------------------
// get: small request -> target NIC DMA-reads the data -> reply carries the
// payload -> source NIC DMA-writes it and raises the completion. The
// completion waits in the ledger; each hop carries its slot id.
// --------------------------------------------------------------------------
void Endpoint::get(Time depart, int dst, Lva src_lva, std::size_t len,
                   OnData on_data) {
  ++fabric_->counters().rma_gets;
  const std::uint32_t id = ledger_.park(std::move(on_data));
  raw_send(depart, dst, kRmaHeaderBytes,
           [this, src_lva, len, id, dst](Time arrived) {
             group_.at(dst).nic_read(
                 arrived, src_lva, len,
                 [this, id, dst](Time done, std::vector<std::byte> payload) {
                   const std::uint64_t bytes = kRmaHeaderBytes + payload.size();
                   group_.at(dst).raw_send(
                       done, node_, bytes,
                       [this, id, payload = std::move(payload)](Time replied) mutable {
                         const Time ready =
                             fabric_->nic(node_).occupy_dma(replied, payload.size());
                         fabric_->engine().at(
                             ready, [this, id, ready,
                                     payload = std::move(payload)]() mutable {
                               finish_get(ready, id, std::move(payload));
                             });
                       });
                 });
           });
}

void Endpoint::finish_get(Time t, std::uint32_t id,
                          std::vector<std::byte> payload) {
  // The slot is free before the callback runs, which may issue more.
  const OnData on_data = std::get<OnData>(ledger_.unpark(id));
  on_data(t, std::move(payload));
}

// --------------------------------------------------------------------------
// NIC-executed remote atomic; the completion waits in the ledger as for
// get.
// --------------------------------------------------------------------------
void Endpoint::fetch_add(Time depart, int dst, Lva lva, std::uint64_t operand,
                         OnU64 on_old) {
  ++fabric_->counters().rma_atomics;
  const std::uint32_t id = ledger_.park(std::move(on_old));
  raw_send(depart, dst, kAtomicBytes,
           [this, lva, operand, id, dst](Time arrived) {
             group_.at(dst).nic_atomic(
                 arrived,
                 [lva, operand](sim::Memory& mem) {
                   return mem.fetch_add_u64(lva, operand);
                 },
                 [this, id, dst](Time done, std::uint64_t old) {
                   group_.at(dst).raw_send(done, node_, kAtomicBytes,
                                           [this, id, old](Time t) {
                                             finish_fetch_add(t, id, old);
                                           });
                 });
           });
}

void Endpoint::finish_fetch_add(Time t, std::uint32_t id, std::uint64_t old) {
  const OnU64 on_old = std::get<OnU64>(ledger_.unpark(id));
  on_old(t, old);
}

// --------------------------------------------------------------------------
// Parcels.
// --------------------------------------------------------------------------
auto Endpoint::parcel_task(int src, util::Buffer payload) {
  return [this, src, payload = std::move(payload)](sim::TaskCtx& ctx) mutable {
    NVGAS_CHECK_MSG(handler_, "parcel arrived with no handler set");
    handler_(ctx, src, std::move(payload));
  };
}

void Endpoint::send_parcel(Time depart, int dst, util::Buffer payload,
                           OnDone on_delivered) {
  ++fabric_->counters().parcels_sent;
  Endpoint* target = &group_.at(dst);

  if (payload.size() <= group_.config().eager_threshold) {
    ++fabric_->counters().parcels_eager;
    const std::uint64_t bytes = kParcelHeaderBytes + payload.size();
    if (!on_delivered) {
      // The common case. Without the 32 B callback the closure is 40 B
      // and stays inside sim::Nic::Deliver's inline buffer.
      raw_send(depart, dst, bytes,
               [this, target, payload = std::move(payload)](Time arrived) mutable {
                 target->deliver_to_cpu(
                     arrived, target->parcel_task(node_, std::move(payload)));
               });
      return;
    }
    raw_send(depart, dst, bytes,
             [this, target, payload = std::move(payload),
              on_delivered = std::move(on_delivered)](Time arrived) mutable {
               target->deliver_to_cpu(
                   arrived, target->parcel_task(node_, std::move(payload)));
               target->raw_send(arrived, node_, kAckBytes,
                                std::move(on_delivered));
             });
    return;
  }

  // Rendezvous: stage the payload, send an RTS; the target CPU pulls the
  // payload from the source stage with a NIC get-like transfer, then runs
  // the handler. This keeps large payloads off the eager path, mirroring
  // Photon's RTS/CTS rendezvous.
  ++fabric_->counters().parcels_rendezvous;
  const std::uint64_t stage_id = next_stage_id_++;
  const std::size_t payload_size = payload.size();
  staged_.emplace(stage_id, std::move(payload));

  send_to_cpu(
      depart, dst, kRtsBytes,
      [this, target, stage_id, payload_size,
       on_delivered = std::move(on_delivered)](sim::TaskCtx& ctx) mutable {
        // Target CPU handles the RTS: post the pull request back to the
        // source NIC (NIC-level; the source CPU is not disturbed).
        ctx.charge(target->post_cost());
        target->raw_send(
            ctx.now(), node_, kRmaHeaderBytes,
            [this, target, stage_id, payload_size,
             on_delivered = std::move(on_delivered)](Time at_src) mutable {
              auto it = staged_.find(stage_id);
              NVGAS_CHECK_MSG(it != staged_.end(),
                              "rendezvous pull for unknown stage");
              util::Buffer staged_payload = std::move(it->second);
              staged_.erase(it);
              const Time done =
                  fabric_->nic(node_).occupy_dma(at_src, staged_payload.size());
              if (on_delivered) on_delivered(done);
              fabric_->engine().at(
                  done, [this, target, done, payload_size,
                         staged_payload = std::move(staged_payload)]() mutable {
                    send_to_cpu(done, target->node_,
                                kRmaHeaderBytes + payload_size,
                                target->parcel_task(node_,
                                                    std::move(staged_payload)));
                  });
            });
      });
}

// --------------------------------------------------------------------------
// Raw sends share the verbs' gateway.
// --------------------------------------------------------------------------
void Endpoint::raw_send(Time depart, int dst, std::uint64_t bytes,
                        sim::Nic::Deliver fn) {
  channel_send(*fabric_, group_.reliability(), node_, dst, depart, bytes,
               std::move(fn));
}

// --------------------------------------------------------------------------
// EndpointGroup.
// --------------------------------------------------------------------------
EndpointGroup::EndpointGroup(sim::Fabric& fabric, const NetConfig& config)
    : config_(config), rels_(std::make_unique<ReliabilityGroup>(fabric)) {
  // protolint:allow(P4: simulator-host array, one Endpoint per simulated node)
  endpoints_.reserve(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    endpoints_.push_back(std::make_unique<Endpoint>(*this, fabric, n));
  }
}

EndpointGroup::~EndpointGroup() = default;

}  // namespace nvgas::net
