// End-to-end retransmission over an unreliable fabric.
//
// When a FaultInjector is armed (sim/faults.hpp), the wire may drop,
// duplicate, or reorder frames; this layer restores the exactly-once,
// per-link in-order delivery the upper layers (RMA completions, parcels,
// NIC-TLB updates, migration fences) were built against:
//
//   * per-(src, dst) sequence numbers — every data frame carries the
//     channel's next seq and a piggybacked cumulative ack of the
//     reverse channel;
//   * sender window — each unacked frame holds its upper-layer Deliver
//     closure in a pooled slot with an O(1)-cancellable retransmit
//     timer (Engine::at_cancellable) backing off exponentially to a
//     configurable cap (NetConfig::retransmit_backoff_cap_ns);
//   * receiver reassembly — frames at or below the channel floor (or
//     already buffered) are discarded as duplicates; out-of-order
//     frames wait in a reorder buffer until the gap fills, so
//     fault-induced reordering never reaches the upper layers (the
//     base simulator's per-link FIFO is part of their contract);
//   * delayed acks — a receiver arms one ack timer per channel
//     (NetConfig::ack_delay_ns); any reverse data frame departing first
//     cancels it and piggybacks the floor instead. Pure acks are
//     unsequenced and themselves fault-exposed: a lost ack is repaired
//     by the next retransmission soliciting a fresh one.
//
// Simulation trick: the wire frame is a thin POD closure carrying only
// {dst endpoint, src, seq, piggybacked ack} — re-invocable, so the NIC
// can deliver a fault-duplicated copy twice, and cheap to re-create for
// retransmits. The upper layer's one-shot Deliver closure never rides
// the wire: it stays in the sender's window slot and is consumed
// exactly once, at the moment the receiver ACCEPTS the seq (the bytes
// it models were on the wire; frames are billed header + payload).
//
// The layer is structurally inert without faults: channel_send() then
// degenerates to a plain Nic::send — no extra events, timers, headers,
// or sequence numbers — so fault-free traces are byte-identical to a
// build without this subsystem (gated by tests/net_faults_test.cpp).
//
// See docs/FAULT_INJECTION.md for the protocol state machine and the
// backoff math; mcheck's drop-under-put / retransmit-vs-migrate
// scenarios model-check it against concurrent migrations.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/config.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "sim/nic.hpp"

namespace nvgas::net {

class ReliabilityGroup;

class Reliability {
 public:
  Reliability(sim::Fabric& fabric, int node, const NetConfig& cfg,
              ReliabilityGroup& group);
  Reliability(const Reliability&) = delete;
  Reliability& operator=(const Reliability&) = delete;

  // Sender entry: queue `deliver` for exactly-once in-order delivery at
  // `dst` (!= node; loopback never enters the channel). `bytes` is the
  // upper-layer payload size; the data frame adds rel_header_bytes.
  void send(sim::Time depart, int dst, std::uint64_t bytes,
            sim::Nic::Deliver deliver);

  // Wire-frame entry points, invoked at THIS (receiving) node by the
  // frame closures the peer put on the wire.
  void on_data(sim::Time t, int src, std::uint64_t seq, std::uint64_t acked);
  void on_ack(sim::Time t, int src, std::uint64_t acked);

  // Receiver-side accept calls back here (at the SENDER) to consume the
  // stored payload closure for `seq` toward `dst` and run it at time t.
  void deliver_payload(sim::Time t, int dst, std::uint64_t seq);

  [[nodiscard]] int node() const { return node_; }
  // Frames sent but not yet cumulatively acked, across all channels.
  [[nodiscard]] std::uint64_t unacked() const;

#ifdef NVGAS_SIMSAN
  // Death-test hook: cancel the oldest unacked slot's armed retransmit
  // timer twice; the second cancel must die with the engine's
  // double-cancel diagnostic. Tests only.
  void simsan_double_cancel_rto(int dst);
  // Death-test hook: invoke a retired (recycled, poisoned) window
  // slot's payload closure; must die with use-after-recycle. Tests only.
  void simsan_invoke_retired_slot(std::uint32_t slot) {
    slots_.at(slot).payload(sim::Time{0});
  }
#endif

 private:
  struct TxSlot {
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;        // upper-layer payload bytes
    sim::Nic::Deliver payload;      // consumed once, on receiver accept
    sim::Engine::TimerId rto;       // armed while the slot is unacked
    sim::Time rto_ns = 0;           // current backoff interval
    bool delivered = false;         // payload consumed; awaiting ack
    std::int32_t next_free = -1;
  };
  struct TxChannel {
    std::uint64_t next_seq = 1;
    // seq -> slot pool index; ordered so cumulative acks retire a prefix
    // deterministically.
    std::map<std::uint64_t, std::int32_t> unacked;
  };
  struct RxChannel {
    std::uint64_t floor = 0;  // highest contiguously accepted seq
    std::set<std::uint64_t> buffered;  // out-of-order seqs past the gap
    sim::Engine::TimerId ack_timer;
    bool ack_armed = false;
  };

  void send_frame(sim::Time depart, int dst, std::uint64_t seq);
  void arm_rto(sim::Time ref, int dst, std::uint64_t seq);
  void on_rto(int dst, std::uint64_t seq);
  void schedule_ack(sim::Time t, int src);
  void send_pure_ack(sim::Time t, int dst);
  void process_ack(int dst, std::uint64_t acked);
  std::int32_t alloc_slot();
  void retire_slot(std::int32_t idx);

  sim::Fabric* fabric_;
  int node_;
  NetConfig cfg_;
  ReliabilityGroup* group_;
  std::vector<TxChannel> tx_;  // indexed by dst
  std::vector<RxChannel> rx_;  // indexed by src
  std::vector<TxSlot> slots_;
  std::int32_t slots_free_ = -1;
};

// One Reliability per node, wired for cross-node frame dispatch; owned
// by the EndpointGroup.
class ReliabilityGroup {
 public:
  ReliabilityGroup(sim::Fabric& fabric, const NetConfig& cfg);

  [[nodiscard]] Reliability& at(int node) {
    return *rels_.at(static_cast<std::size_t>(node));
  }

 private:
  std::vector<std::unique_ptr<Reliability>> rels_;
};

// THE traffic gateway above the NIC: every endpoint-level send funnels
// through here. Without faults armed (or on loopback) it is a plain
// Nic::send — structurally inert, nothing added to the event stream —
// otherwise the frame enters `from`'s reliability channel. `rel` may be
// null only for standalone endpoints outside a group, which can never
// have faults armed.
void channel_send(sim::Fabric& fabric, ReliabilityGroup* rel, int from,
                  int dst, sim::Time depart, std::uint64_t bytes,
                  sim::Nic::Deliver fn);

}  // namespace nvgas::net
