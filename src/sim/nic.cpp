#include "sim/nic.hpp"

#include <algorithm>

#include "sim/explorer.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace nvgas::sim {

std::int32_t Nic::park_msg(int src, std::uint64_t bytes, Deliver deliver,
                           std::uint64_t inj, std::uint8_t copies) {
  std::int32_t idx;
  if (inflight_free_ >= 0) {
    idx = inflight_free_;
    inflight_free_ = inflight_[static_cast<std::size_t>(idx)].next_free;
#ifdef NVGAS_SIMSAN
    NVGAS_CHECK_MSG(!inflight_[static_cast<std::size_t>(idx)].parked,
                    "SimSan: free list holds an in-flight message slot");
#endif
  } else {
    inflight_.emplace_back();
    idx = static_cast<std::int32_t>(inflight_.size() - 1);
  }
  PendingMsg& m = inflight_[static_cast<std::size_t>(idx)];
  m.src = src;
  m.bytes = bytes;
  m.copies = copies;
  m.deliver = std::move(deliver);
  m.inj = inj;
#ifdef NVGAS_SIMSAN
  m.parked = true;
#endif
  return idx;
}

void Nic::send(Time depart, int dst, std::uint64_t bytes, Deliver deliver) {
  auto& engine = fabric_->engine();
  const auto& p = fabric_->params();
  NVGAS_CHECK(depart >= engine.now());

  // tx port serialization.
  tx_avail_ = std::max(depart, tx_avail_) + p.wire_time(bytes);
  Time at_dst_port = tx_avail_ + fabric_->latency(node_, dst);

  // mcheck hook: an armed Explorer may delay the arrival (bounded, FIFO
  // preserving) to explore alternative delivery schedules. This is the
  // ONLY sanctioned injection point — simlint rule D6 flags bypasses.
  std::uint64_t inj = kNoInjection;
  if (Explorer* ex = fabric_->explorer()) {
    at_dst_port = ex->on_injection(node_, dst, at_dst_port, &inj);
  }

  ++tx_messages_;
  tx_bytes_ += bytes;
  auto& c = fabric_->counters();
  ++c.messages_sent;
  c.bytes_sent += bytes;

  fabric_->trace().record(tx_avail_, TraceEvent::kMsgSend, node_, dst, bytes);

  // Fault hook (same sanctioned point, after the Explorer so a dropped
  // frame still consumed its injection index). Loopback frames never
  // touch the wire and are exempt, like on real hardware.
  FaultDecision fd;
  if (FaultInjector* fi = fabric_->faults(); fi != nullptr && dst != node_) {
    fd = fi->on_injection(node_, dst, tx_avail_, bytes);
  }
  if (fd.drop) {
    // The wire ate it: the frame was sent (counted above) but never
    // arrives anywhere. The Deliver closure dies here; end-to-end
    // recovery is the reliability layer's job (net/reliability).
    fabric_->trace().record(tx_avail_, TraceEvent::kMsgDrop, node_, dst, bytes);
    return;
  }

  Nic& dst_nic = fabric_->nic(dst);
  const std::uint8_t copies = fd.duplicate ? 2 : 1;
  const std::int32_t idx =
      dst_nic.park_msg(node_, bytes, std::move(deliver), inj, copies);
  const Time arrive0 = at_dst_port + fd.extra_delay;
  // simlint:allow(D5: &dst_nic lives in the Fabric, which outlives the engine)
  engine.at(arrive0, [&dst_nic, idx, arrive0] { dst_nic.arrive(idx, arrive0); });
  if (fd.duplicate) {
    const Time arrive1 = at_dst_port + fd.dup_extra_delay;
    // The duplicate is a full extra frame at the destination: it pays
    // its own rx-port occupancy and is delivered (and counted) again.
    // simlint:allow(D5: &dst_nic lives in the Fabric, which outlives the engine)
    engine.at(arrive1, [&dst_nic, idx, arrive1] { dst_nic.arrive(idx, arrive1); });
  }
}

void Nic::arrive(std::int32_t idx, Time at_port) {
  auto& engine = fabric_->engine();
  const auto& p = fabric_->params();
  PendingMsg& m = inflight_[static_cast<std::size_t>(idx)];
#ifdef NVGAS_SIMSAN
  NVGAS_CHECK_MSG(m.parked,
                  "SimSan: use-after-recycle — rx of a freed message slot");
#endif

  // rx port occupancy.
  rx_avail_ = std::max(at_port, rx_avail_) + p.nic_gap_ns;
  const Time done = rx_avail_;
  fabric_->trace().record(done, TraceEvent::kMsgArrive, node_, m.src, m.bytes);

  ++rx_messages_;
  auto& c = fabric_->counters();
  ++c.messages_delivered;
  c.bytes_delivered += m.bytes;

  engine.at(done, [this, idx, done] { deliver_parked(idx, done); });
}

void Nic::deliver_parked(std::int32_t idx, Time done) {
  PendingMsg& m = inflight_[static_cast<std::size_t>(idx)];
#ifdef NVGAS_SIMSAN
  NVGAS_CHECK_MSG(m.parked,
                  "SimSan: use-after-recycle — double delivery of a message");
#endif
  if (m.copies > 1) {
    // A fault-duplicated copy landed first: invoke the closure but keep
    // the slot parked for the remaining copy. The closure is moved out
    // for the call (a nested send may grow inflight_ and relocate the
    // slot) and moved back afterwards — InlineFunction invocation is
    // non-destructive, so it stays callable. Only reachable with faults
    // armed, where every wire closure is a re-invocable POD frame.
    --m.copies;
    const std::uint64_t inj = m.inj;
    Deliver fn = std::move(m.deliver);
    if (Explorer* ex = fabric_->explorer()) ex->on_delivery(node_, inj);
    fn(done);
    inflight_[static_cast<std::size_t>(idx)].deliver = std::move(fn);
    return;
  }
#ifdef NVGAS_SIMSAN
  m.parked = false;
#endif
  Deliver fn = std::move(m.deliver);
  const std::uint64_t inj = m.inj;
#ifdef NVGAS_SIMSAN
  m.deliver.poison();  // a stale delivery would invoke a poisoned closure
#endif
  m.next_free = inflight_free_;
  inflight_free_ = idx;
  if (Explorer* ex = fabric_->explorer()) ex->on_delivery(node_, inj);
  fn(done);
}

Time Nic::occupy_command_processor(Time ready, Time cost) {
  cp_avail_ = std::max(ready, cp_avail_) + cost;
  return cp_avail_;
}

}  // namespace nvgas::sim
