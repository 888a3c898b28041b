#include "net/endpoint.hpp"

#include <utility>

#include "net/reliability.hpp"
#include "util/assert.hpp"

namespace nvgas::net {

Endpoint::Endpoint(sim::Fabric& fabric, int node, const NetConfig& config)
    : fabric_(&fabric), node_(node), config_(config) {}

// --------------------------------------------------------------------------
// put: source NIC -> wire -> target NIC command processor does the DMA
// write -> small ack back to the source. No target CPU task anywhere.
// --------------------------------------------------------------------------
void Endpoint::put(Time depart, int dst, Lva dst_lva,
                   std::vector<std::byte> data, OnDone on_complete,
                   OnDone on_remote) {
  auto& f = *fabric_;
  ++f.counters().rma_puts;
  const auto n = static_cast<std::uint64_t>(data.size());
  const int src = node_;
  ReliabilityGroup* rel = rels_;
  channel_send(
      f, rel, node_, dst, depart, config_.rma_header_bytes + n,
      [&f, rel, dst, src, dst_lva, data = std::move(data),
       on_complete = std::move(on_complete),
       on_remote = std::move(on_remote)](Time arrived) mutable {
        auto& nic = f.nic(dst);
        const Time cost = f.params().nic_dma_ns +
                          f.params().copy_time(data.size());
        const Time done = nic.occupy_command_processor(arrived, cost);
        // simlint:allow(D5: &f is the Fabric, which owns and outlives the engine)
        f.engine().at(done, [&f, rel, dst, src, dst_lva, done,
                             data = std::move(data),
                             on_complete = std::move(on_complete),
                             on_remote = std::move(on_remote)]() mutable {
          f.mem(dst).write(dst_lva, data);
          if (on_remote) on_remote(done);  // remote completion ledger
          if (on_complete) {
            const auto ack_bytes = std::uint64_t{16};
            channel_send(f, rel, dst, src, done, ack_bytes,
                         [on_complete = std::move(on_complete)](Time t) {
                           on_complete(t);
                         });
          }
        });
      });
}

// --------------------------------------------------------------------------
// get: small request -> target NIC DMA-reads the data -> reply carries the
// payload -> source NIC DMA-writes it and raises the completion.
// --------------------------------------------------------------------------
void Endpoint::get(Time depart, int dst, Lva src_lva, std::size_t len,
                   OnData on_data) {
  auto& f = *fabric_;
  ++f.counters().rma_gets;
  const int src = node_;
  const NetConfig cfg = config_;
  ReliabilityGroup* rel = rels_;
  channel_send(
      f, rel, node_, dst, depart, cfg.rma_header_bytes,
      [&f, rel, cfg, dst, src, src_lva, len,
       on_data = std::move(on_data)](Time arrived) mutable {
        auto& nic = f.nic(dst);
        const Time cost = f.params().nic_dma_ns + f.params().copy_time(len);
        const Time done = nic.occupy_command_processor(arrived, cost);
        // simlint:allow(D5: &f is the Fabric, which owns and outlives the engine)
        f.engine().at(done, [&f, rel, cfg, dst, src, src_lva, len, done,
                             on_data = std::move(on_data)]() mutable {
          std::vector<std::byte> payload = f.mem(dst).read_vec(src_lva, len);
          channel_send(
              f, rel, dst, src, done, cfg.rma_header_bytes + len,
              [&f, src, on_data = std::move(on_data),
               payload = std::move(payload)](Time replied) mutable {
                auto& src_nic = f.nic(src);
                const Time wcost = f.params().nic_dma_ns +
                                   f.params().copy_time(payload.size());
                const Time ready = src_nic.occupy_command_processor(replied, wcost);
                f.engine().at(ready, [ready, on_data = std::move(on_data),
                                      payload = std::move(payload)]() mutable {
                  on_data(ready, std::move(payload));
                });
              });
        });
      });
}

// --------------------------------------------------------------------------
// NIC-executed remote atomics.
// --------------------------------------------------------------------------
namespace {

template <typename Op>
void atomic_op(sim::Fabric& f, ReliabilityGroup* rel, const NetConfig& cfg,
               int src, Time depart, int dst, OnU64 on_old, Op op) {
  ++f.counters().rma_atomics;
  channel_send(
      f, rel, src, dst, depart, cfg.atomic_bytes,
      [&f, rel, cfg, dst, src, on_old = std::move(on_old),
       op](Time arrived) mutable {
        auto& nic = f.nic(dst);
        const Time done =
            nic.occupy_command_processor(arrived, f.params().nic_atomic_ns);
        // simlint:allow(D5: &f is the Fabric, which owns and outlives the engine)
        f.engine().at(done, [&f, rel, cfg, dst, src, done,
                             on_old = std::move(on_old), op]() mutable {
          const std::uint64_t old = op(f.mem(dst));
          channel_send(f, rel, dst, src, done, cfg.atomic_bytes,
                       [old, on_old = std::move(on_old)](Time t) {
                         on_old(t, old);
                       });
        });
      });
}

}  // namespace

void Endpoint::fetch_add(Time depart, int dst, Lva lva, std::uint64_t operand,
                         OnU64 on_old) {
  atomic_op(*fabric_, rels_, config_, node_, depart, dst, std::move(on_old),
            [lva, operand](sim::Memory& mem) {
              return mem.fetch_add_u64(lva, operand);
            });
}

void Endpoint::compare_swap(Time depart, int dst, Lva lva,
                            std::uint64_t expected, std::uint64_t desired,
                            OnU64 on_old) {
  atomic_op(*fabric_, rels_, config_, node_, depart, dst, std::move(on_old),
            [lva, expected, desired](sim::Memory& mem) {
              return mem.compare_swap_u64(lva, expected, desired);
            });
}

// --------------------------------------------------------------------------
// Parcels.
// --------------------------------------------------------------------------
void Endpoint::deliver_parcel_to_cpu(Time at, int src, util::Buffer payload) {
  NVGAS_CHECK_MSG(handler_ != nullptr, "parcel arrived with no handler set");
  auto& f = *fabric_;
  f.cpu(node_).submit_at(
      at, [this, &f, src, payload = std::move(payload)](sim::TaskCtx& ctx) mutable {
        ctx.charge(f.params().cpu_recv_overhead_ns);
        handler_(ctx, src, std::move(payload));
      });
}

void Endpoint::send_parcel(Time depart, int dst, util::Buffer payload,
                           OnDone on_delivered) {
  auto& f = *fabric_;
  ++f.counters().parcels_sent;
  Endpoint* self = this;
  // EndpointGroup guarantees all endpoints outlive the fabric's events, so
  // capturing the raw destination endpoint pointer is safe.
  NVGAS_CHECK_MSG(peer_ != nullptr || dst == node_,
                  "endpoint not wired into a group");
  Endpoint* target = dst == node_ ? this : peer_(dst);
  NVGAS_CHECK(target != nullptr);

  if (payload.size() <= config_.eager_threshold) {
    ++f.counters().parcels_eager;
    const std::uint64_t bytes = config_.parcel_header_bytes + payload.size();
    const int src = node_;
    channel_send(f, rels_, node_, dst, depart, bytes,
                 [target, src, payload = std::move(payload),
                  on_delivered = std::move(on_delivered),
                  self](Time arrived) mutable {
                   target->deliver_parcel_to_cpu(arrived, src,
                                                 std::move(payload));
                   if (on_delivered) {
                     auto& f2 = *target->fabric_;
                     channel_send(
                         f2, target->rels_, target->node_, self->node_,
                         arrived, 16,
                         [on_delivered = std::move(on_delivered)](Time t) {
                           on_delivered(t);
                         });
                   }
                 });
    return;
  }

  // Rendezvous: stage the payload, send an RTS; the target CPU pulls the
  // payload from the source stage with a NIC get-like transfer, then runs
  // the handler. This keeps large payloads off the eager path, mirroring
  // Photon's RTS/CTS rendezvous.
  ++f.counters().parcels_rendezvous;
  const std::uint64_t stage_id = next_stage_id_++;
  const std::size_t payload_size = payload.size();
  staged_.emplace(stage_id, std::move(payload));

  const int src = node_;
  const NetConfig cfg = config_;
  channel_send(
      f, rels_, node_, dst, depart, cfg.rts_bytes,
      [&f, cfg, target, self, src, stage_id, payload_size,
       on_delivered = std::move(on_delivered)](Time arrived) mutable {
        // Target CPU handles the RTS: post the pull.
        f.cpu(target->node_).submit_at(
            arrived, [&f, cfg, target, self, src, stage_id, payload_size,
                      on_delivered = std::move(on_delivered)](
                         sim::TaskCtx& ctx) mutable {
              ctx.charge(f.params().cpu_recv_overhead_ns);
              ctx.charge(target->post_cost());
              // Pull request back to the source NIC (NIC-level; the source
              // CPU is not disturbed).
              channel_send(
                  f, target->rels_, target->node_, src, ctx.now(),
                  cfg.rma_header_bytes,
                  [&f, cfg, target, self, stage_id, payload_size,
                   on_delivered = std::move(on_delivered)](Time at_src) mutable {
                    auto it = self->staged_.find(stage_id);
                    NVGAS_CHECK_MSG(it != self->staged_.end(),
                                    "rendezvous pull for unknown stage");
                    util::Buffer staged_payload = std::move(it->second);
                    self->staged_.erase(it);
                    const Time cost = f.params().nic_dma_ns +
                                      f.params().copy_time(staged_payload.size());
                    const Time done = f.nic(self->node_).occupy_command_processor(
                        at_src, cost);
                    if (on_delivered) on_delivered(done);
                    // simlint:allow(D5: &f is the Fabric, which owns and outlives the engine)
                    f.engine().at(done, [&f, cfg, target, self, done,
                                         staged_payload = std::move(staged_payload),
                                         payload_size]() mutable {
                      channel_send(
                          f, self->rels_, self->node_, target->node_, done,
                          cfg.rma_header_bytes + payload_size,
                          [target, self, staged_payload =
                                             std::move(staged_payload)](Time t) mutable {
                            target->deliver_parcel_to_cpu(
                                t, self->node_, std::move(staged_payload));
                          });
                    });
                  });
            });
      });
}

// --------------------------------------------------------------------------
// Raw sends share the verbs' gateway.
// --------------------------------------------------------------------------
void Endpoint::raw_send(Time depart, int dst, std::uint64_t bytes,
                        sim::Nic::Deliver fn) {
  channel_send(*fabric_, rels_, node_, dst, depart, bytes, std::move(fn));
}

// --------------------------------------------------------------------------
// EndpointGroup.
// --------------------------------------------------------------------------
EndpointGroup::EndpointGroup(sim::Fabric& fabric, const NetConfig& config)
    : config_(config),
      rels_(std::make_unique<ReliabilityGroup>(fabric, config)) {
  // protolint:allow(P4: simulator-host array, one Endpoint per simulated node)
  endpoints_.reserve(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    endpoints_.push_back(std::make_unique<Endpoint>(fabric, n, config_));
  }
  for (auto& ep : endpoints_) {
    ep->peer_ = [this](int node) { return &at(node); };
    ep->rels_ = rels_.get();
  }
}

EndpointGroup::~EndpointGroup() = default;

}  // namespace nvgas::net
