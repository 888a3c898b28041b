// Photon-style RMA middleware endpoint.
//
// One Endpoint per node, layered directly on the simulated NIC. It
// provides the verbs the original system gets from Photon:
//
//   * put / get with completion  — one-sided RMA on registered memory;
//     the target CPU is never involved (DMA + ack ride the NIC command
//     processor),
//   * fetch_add                  — NIC-executed remote atomic,
//   * parcels                    — two-sided active-message transport
//     with eager and rendezvous (RTS+get) protocols; these DO raise a
//     CPU task at the target, which is exactly the cost the
//     network-managed AGAS avoids on its data path.
//
// Completions run as engine events at the time the completion would
// appear in the source's completion ledger. A get or fetch_add carries
// the 32-bit id its caller chose (Photon's completion id) on every hop,
// and its last hop hands the id back with the result to the issuing
// endpoint's one RMA sink; the caller keeps whatever else the op needs
// under that id.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/config.hpp"
#include "sim/cpu.hpp"
#include "sim/fabric.hpp"
#include "sim/memory.hpp"
#include "util/assert.hpp"
#include "util/buffer.hpp"
#include "util/inline_function.hpp"

namespace nvgas::net {

class ReliabilityGroup;  // net/reliability.hpp — retransmission channels

using sim::Lva;
using sim::Time;

// Public completion callback of put and parcels. std::function is
// deliberate at this API boundary: callers (gas/, rt/, tests) hand in
// arbitrary-size copyable closures, and std::function keeps one of up to
// 16 bytes without allocating. The verbs move it once and never copy it
// per hop, but carry it inside their hop closures, which then spill to
// the heap.
// simlint:allow(D4: public API boundary type, moved once per verb)
using OnDone = std::function<void(Time)>;

// Where an endpoint's get and fetch_add results go: the last hop of each
// hands back the id its caller posted it with. Set once per endpoint, as
// the parcel handler is; a completion with no sink set aborts.
class RmaSink {
 public:
  virtual void get_done(Time t, std::uint32_t id, std::vector<std::byte> data) = 0;
  virtual void fetch_add_done(Time t, std::uint32_t id, std::uint64_t old) = 0;

 protected:
  ~RmaSink() = default;
};

// Parcel handlers run as CPU tasks at the destination.
using ParcelHandler =
    util::InlineFunction<void(sim::TaskCtx&, int src, util::Buffer payload)>;

class EndpointGroup;

class Endpoint {
 public:
  Endpoint(EndpointGroup& group, sim::Fabric& fabric, int node);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] sim::Fabric& fabric() { return *fabric_; }

  // --- one-sided RMA ------------------------------------------------------
  // All verbs take an explicit departure time; runtime-layer callers pass
  // TaskCtx::now() after charging kCpuSendOverheadNs (use post_cost()).

  // Write `data` into dst's registered segment at dst_lva. `on_complete`
  // fires at the source once the remote write is acknowledged;
  // `on_remote` (optional) fires AT THE TARGET the moment the data is
  // visible — Photon's put-with-completion remote ledger, which lets a
  // consumer learn of arriving data without any two-sided traffic.
  void put(Time depart, int dst, Lva dst_lva, std::vector<std::byte> data,
           OnDone on_complete, OnDone on_remote = nullptr);

  // Read `len` bytes from dst's registered segment at src_lva; the bytes
  // reach this endpoint's sink as get_done(t, id, bytes).
  void get(Time depart, int dst, Lva src_lva, std::size_t len, std::uint32_t id);

  // NIC-executed atomic on an 8-byte-aligned remote word; the old word
  // reaches this endpoint's sink as fetch_add_done(t, id, old).
  void fetch_add(Time depart, int dst, Lva lva, std::uint64_t operand,
                 std::uint32_t id);

  void set_rma_sink(RmaSink* sink) { sink_ = sink; }

  // --- NIC-side RMA execution ----------------------------------------------
  // What this node's NIC command processor does for a one-sided op that
  // reaches it at `ready`: occupy the command processor (one DMA, or
  // kNicAtomicNs), then apply the memory effect and run the continuation
  // as one engine event at the completion time `done`.

  // DMA `data` into memory at lva, then then(done).
  template <typename Then>
  void nic_write(Time ready, Lva lva, std::vector<std::byte> data, Then then) {
    const Time done = fabric_->nic(node_).occupy_dma(ready, data.size());
    fabric_->engine().at(done, [this, lva, done, data = std::move(data),
                                then = std::move(then)]() mutable {
      fabric_->mem(node_).write(lva, data);
      then(done);
    });
  }

  // DMA `len` bytes out of memory at lva, then then(done, bytes).
  template <typename Then>
  void nic_read(Time ready, Lva lva, std::size_t len, Then then) {
    const Time done = fabric_->nic(node_).occupy_dma(ready, len);
    fabric_->engine().at(done, [this, lva, len, done,
                                then = std::move(then)]() mutable {
      then(done, fabric_->mem(node_).read_vec(lva, len));
    });
  }

  // Apply op(memory) -> old word, then then(done, old).
  template <typename Op, typename Then>
  void nic_atomic(Time ready, Op op, Then then) {
    const Time done =
        fabric_->nic(node_).occupy_command_processor(ready, sim::kNicAtomicNs);
    fabric_->engine().at(done, [this, done, op = std::move(op),
                                then = std::move(then)]() mutable {
      then(done, op(fabric_->mem(node_)));
    });
  }

  // --- two-sided parcels --------------------------------------------------

  void set_parcel_handler(ParcelHandler handler) { handler_ = std::move(handler); }

  // Deliver `payload` to dst's parcel handler (CPU task at dst). Eager for
  // small payloads; rendezvous for large ones. `on_delivered` (optional)
  // fires at the source once the target handler task has been enqueued.
  void send_parcel(Time depart, int dst, util::Buffer payload,
                   OnDone on_delivered = nullptr);

  // --- message hops for protocols built on raw messages --------------------
  // The software and network-managed AGAS build their control and GVA
  // ops directly on raw messages. Like every other verb, raw sends go
  // through the reliability gateway: a plain Nic::send without faults
  // armed, a sequenced channel frame with them.

  // A message whose handler `fn(arrival)` runs on dst's NIC: no CPU.
  void raw_send(Time depart, int dst, std::uint64_t bytes, sim::Nic::Deliver fn);

  // A message whose handler `handler(ctx)` is a CPU task at dst: the task
  // is queued at arrival and pays the receive overhead o_recv before
  // the handler runs. This is the cost the network-managed data path
  // avoids.
  template <typename Handler>
  void send_to_cpu(Time depart, int dst, std::uint64_t bytes, Handler handler);

  // CPU cost of posting a descriptor; callers charge this before picking
  // the departure time.
  [[nodiscard]] static Time post_cost() { return sim::kCpuSendOverheadNs; }

 private:
  // The receiving half of send_to_cpu, run at this (the destination)
  // node when the message arrives at `at`.
  template <typename Handler>
  void deliver_to_cpu(Time at, Handler handler) {
    fabric_->cpu(node_).submit_at(
        at, [this, handler = std::move(handler)](sim::TaskCtx& ctx) mutable {
          ctx.charge(sim::kCpuRecvOverheadNs);
          handler(ctx);
        });
  }

  // The CPU-task body that hands a parcel from `src` to this node's
  // parcel handler.
  auto parcel_task(int src, util::Buffer payload);

  // This endpoint's sink, checked at each get's or fetch_add's last hop.
  [[nodiscard]] RmaSink& sink() const {
    NVGAS_CHECK_MSG(sink_ != nullptr, "RMA completion arrived with no sink set");
    return *sink_;
  }

  EndpointGroup& group_;
  sim::Fabric* fabric_;
  int node_;
  ParcelHandler handler_;
  RmaSink* sink_ = nullptr;

  // Rendezvous staging: payloads parked at the source until the target
  // pulls them.
  // simlint:allow(D1: keyed find/erase only, never iterated)
  std::unordered_map<std::uint64_t, util::Buffer> staged_;
  std::uint64_t next_stage_id_ = 1;
};

// All endpoints of a fabric, with the reliability channels they share.
class EndpointGroup {
 public:
  EndpointGroup(sim::Fabric& fabric, const NetConfig& config);
  ~EndpointGroup();  // out-of-line: ReliabilityGroup is incomplete here

  [[nodiscard]] Endpoint& at(int node) { return *endpoints_.at(static_cast<std::size_t>(node)); }
  [[nodiscard]] int size() const { return static_cast<int>(endpoints_.size()); }
  [[nodiscard]] const NetConfig& config() const { return config_; }
  [[nodiscard]] ReliabilityGroup& reliability() { return *rels_; }

 private:
  NetConfig config_;
  std::unique_ptr<ReliabilityGroup> rels_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

template <typename Handler>
void Endpoint::send_to_cpu(Time depart, int dst, std::uint64_t bytes,
                           Handler handler) {
  Endpoint* target = &group_.at(dst);
  raw_send(depart, dst, bytes,
           [target, handler = std::move(handler)](Time arrived) mutable {
             target->deliver_to_cpu(arrived, std::move(handler));
           });
}

}  // namespace nvgas::net
