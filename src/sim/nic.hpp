// Simulated network interface.
//
// Each node owns one NIC with three modelled resources:
//   * tx port  — serializes outgoing messages (g + size·G each),
//   * rx port  — serializes incoming messages (g each),
//   * command processor — executes NIC-resident work (DMA setup, TLB
//     lookups, forwards, atomics) WITHOUT involving the node's CPU.
// The command processor is the hardware the paper's contribution leans
// on: one-sided GVA operations ride it end to end.
//
// In-flight messages are parked in a recycled pool on the destination
// NIC; the wire-hop and rx-port engine events capture only {nic, slot},
// so a message in flight costs zero heap allocations at the engine
// layer (the Deliver closure itself is inline up to 48 bytes).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/counters.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/time.hpp"
#include "util/inline_function.hpp"

namespace nvgas::sim {

class Fabric;

class Nic {
 public:
  // `deliver` runs as an engine event at the destination NIC once the
  // message clears the destination rx port; its argument is that time.
  using Deliver = util::InlineFunction<void(Time), 48>;

  Nic(Fabric& fabric, int node) : fabric_(&fabric), node_(node) {}
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  // Inject `bytes` toward `dst`, departing no earlier than `depart`
  // (callers pass TaskCtx::now() so CPU work preceding the send delays it).
  void send(Time depart, int dst, std::uint64_t bytes, Deliver deliver);

  // Reserve the command processor from `ready` for `cost` ns; returns the
  // completion time. Used by NIC-level op handlers.
  Time occupy_command_processor(Time ready, Time cost);

  // Sentinel injection index for messages sent with no Explorer armed.
  static constexpr std::uint64_t kNoInjection = ~std::uint64_t{0};

  [[nodiscard]] int node() const { return node_; }
  [[nodiscard]] std::uint64_t tx_messages() const { return tx_messages_; }
  [[nodiscard]] std::uint64_t tx_bytes() const { return tx_bytes_; }
  [[nodiscard]] std::uint64_t rx_messages() const { return rx_messages_; }

 private:
  friend class Fabric;

  // One in-flight message parked on the destination NIC. Arrival and
  // rx-done times travel through the wire-hop/delivery event closures
  // (not through the slot), so a fault-duplicated frame can be in flight
  // twice against one slot: `copies` counts outstanding deliveries and
  // the slot recycles when the last one lands (always 1 without faults).
  struct PendingMsg {
    std::uint64_t bytes = 0;
    int src = -1;
    std::uint8_t copies = 1;
    Deliver deliver;
    std::int32_t next_free = -1;
    // Explorer injection index (kNoInjection when no explorer is armed).
    std::uint64_t inj = kNoInjection;
#ifdef NVGAS_SIMSAN
    bool parked = false;  // occupancy audit: delivery of a free slot aborts
#endif
  };

  std::int32_t park_msg(int src, std::uint64_t bytes, Deliver deliver,
                        std::uint64_t inj, std::uint8_t copies);
  // Called on the destination NIC when the message hits its rx port.
  void arrive(std::int32_t idx, Time at_port);
  void deliver_parked(std::int32_t idx, Time done);

  Fabric* fabric_;
  int node_;
  Time tx_avail_ = 0;
  Time rx_avail_ = 0;
  Time cp_avail_ = 0;
  std::uint64_t tx_messages_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::uint64_t rx_messages_ = 0;
  std::vector<PendingMsg> inflight_;
  std::int32_t inflight_free_ = -1;
};

}  // namespace nvgas::sim
