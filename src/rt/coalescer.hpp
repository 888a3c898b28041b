// Runtime-level message coalescing (the AM++ optimization): small active
// messages to the same destination are buffered and shipped as one
// parcel, trading per-message overhead (o_send, headers, rx gap,
// per-parcel CPU dispatch) for batching latency.
//
//   rt::Coalescer co(runtime);            // or with a custom config
//   co.send(ctx, dst, action, args);      // instead of ctx.send(...)
//   co.flush_all(ctx);                    // or rely on size/time triggers
//
// Flush triggers: the batch reaching `max_batch_bytes`, `max_messages`,
// or `max_delay_ns` elapsing since the batch's first message (a timer
// task on the sending rank). Per-destination FIFO order is preserved.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "rt/action.hpp"
#include "rt/context.hpp"
#include "rt/runtime.hpp"

namespace nvgas::rt {

struct CoalescerConfig {
  std::size_t max_batch_bytes = 2048;  // flush when a batch reaches this
  std::uint32_t max_messages = 64;     // ... or this many messages
  sim::Time max_delay_ns = 5'000;      // ... or this much buffering delay
};

class Coalescer {
 public:
  explicit Coalescer(Runtime& rt, CoalescerConfig config = {});
  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  // Buffer a message for (dst, action). Must run inside a fiber segment
  // on the sending rank (the rank is taken from `ctx`).
  void send(Context& ctx, int dst, ActionId action, util::Buffer args);

  // Force out the pending batch for one destination / all destinations.
  void flush(Context& ctx, int dst);
  void flush_all(Context& ctx);

  [[nodiscard]] std::uint64_t batches_sent() const { return batches_sent_; }
  [[nodiscard]] std::uint64_t messages_coalesced() const {
    return messages_coalesced_;
  }
  [[nodiscard]] const CoalescerConfig& config() const { return config_; }

 private:
  struct Slot {
    util::Buffer buf;            // [action u32][len u32][args]...
    std::uint32_t count = 0;
    std::uint64_t epoch = 0;     // invalidates stale flush timers
  };


  void ship(Context& ctx, int dst, Slot& s);
  void arm_timer(int src, int dst, std::uint64_t epoch);

  Runtime& rt_;
  CoalescerConfig config_;
  // (src, dst) -> slot, created by the first send from src to dst.
  // Ordered, so flush_all visits a rank's destinations in ascending dst;
  // node-stable, so a Slot& stays valid across inserts made during ship.
  std::map<std::pair<int, int>, Slot> slots_;
  ActionId batch_action_ = kInvalidAction;
  std::uint64_t batches_sent_ = 0;
  std::uint64_t messages_coalesced_ = 0;
};

}  // namespace nvgas::rt
