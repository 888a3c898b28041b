#include "net/reliability.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nvgas::net {

Reliability::Reliability(sim::Fabric& fabric, int node, ReliabilityGroup& group)
    : fabric_(&fabric),
      node_(node),
      group_(&group),
      // protolint:allow(P4: dense per-(src,dst) send windows, the canonical reliability O(P) site; ROADMAP item 6 pools them over active peers)
      tx_(static_cast<std::size_t>(fabric.nodes())),
      // protolint:allow(P4: dense per-(src,dst) receive windows; ROADMAP item 6 pools them over active peers)
      rx_(static_cast<std::size_t>(fabric.nodes())) {}

std::int32_t Reliability::alloc_slot() {
  if (slots_free_ >= 0) {
    const std::int32_t idx = slots_free_;
    slots_free_ = slots_[static_cast<std::size_t>(idx)].next_free;
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::int32_t>(slots_.size() - 1);
}

void Reliability::retire_slot(std::int32_t idx) {
  TxSlot& s = slots_[static_cast<std::size_t>(idx)];
#ifdef NVGAS_SIMSAN
  s.payload.poison();  // a late consume of a retired slot must abort
#endif
  s.delivered = false;
  s.seq = 0;
  s.bytes = 0;
  s.rto = {};
  s.next_free = slots_free_;
  slots_free_ = idx;
}

void Reliability::send(sim::Time depart, int dst, std::uint64_t bytes,
                       sim::Nic::Deliver deliver) {
  NVGAS_CHECK_MSG(dst != node_,
                  "loopback frames never enter the reliability channel");
  TxChannel& ch = tx_[static_cast<std::size_t>(dst)];
  const std::uint64_t seq = ch.next_seq++;
  const std::int32_t idx = alloc_slot();
  TxSlot& s = slots_[static_cast<std::size_t>(idx)];
  s.seq = seq;
  s.bytes = bytes;
  s.payload = std::move(deliver);
  s.rto_ns = kRetransmitTimeoutNs;
  s.delivered = false;
  ch.unacked.emplace(seq, idx);
  send_frame(depart, dst, seq);
  arm_rto(depart, dst, seq);
}

void Reliability::send_frame(sim::Time depart, int dst, std::uint64_t seq) {
  TxChannel& ch = tx_[static_cast<std::size_t>(dst)];
  const auto it = ch.unacked.find(seq);
  NVGAS_CHECK_MSG(it != ch.unacked.end(), "framing a retired seq");
  const TxSlot& s = slots_[static_cast<std::size_t>(it->second)];

  // Piggyback our cumulative floor for dst's reverse channel; a pending
  // delayed pure ack becomes redundant and is cancelled.
  RxChannel& r = rx_[static_cast<std::size_t>(dst)];
  if (r.ack_armed) {
    (void)fabric_->engine().cancel(r.ack_timer);
    r.ack_armed = false;
    r.ack_timer = {};
  }
  const std::uint64_t piggy = r.floor;

  // The wire frame: a re-invocable POD closure (survives fault
  // duplication); the payload closure stays in the window slot.
  Reliability* peer = &group_->at(dst);
  const int src = node_;
  fabric_->nic(node_).send(
      depart, dst, kRelHeaderBytes + s.bytes,
      [peer, src, seq, piggy](sim::Time t) { peer->on_data(t, src, seq, piggy); });
}

void Reliability::arm_rto(sim::Time ref, int dst, std::uint64_t seq) {
  TxChannel& ch = tx_[static_cast<std::size_t>(dst)];
  const auto it = ch.unacked.find(seq);
  NVGAS_CHECK_MSG(it != ch.unacked.end(), "arming RTO for a retired seq");
  TxSlot& s = slots_[static_cast<std::size_t>(it->second)];
  s.rto = fabric_->engine().at_cancellable(
      ref + s.rto_ns, [this, dst, seq] { on_rto(dst, seq); });
}

void Reliability::on_rto(int dst, std::uint64_t seq) {
  TxChannel& ch = tx_[static_cast<std::size_t>(dst)];
  const auto it = ch.unacked.find(seq);
  // Retirement cancels the timer, so a fired RTO always finds its slot.
  NVGAS_CHECK_MSG(it != ch.unacked.end(), "RTO fired for a retired seq");
  TxSlot& s = slots_[static_cast<std::size_t>(it->second)];
  s.rto = {};
  ++fabric_->counters().net_retransmits;
  s.rto_ns = std::min<sim::Time>(s.rto_ns * 2, kRetransmitBackoffCapNs);
  // Resend even if already delivered: the ack was lost, and the
  // retransmitted frame solicits a fresh one via the dedup path.
  const sim::Time now = fabric_->engine().now();
  send_frame(now, dst, seq);
  arm_rto(now, dst, seq);
}

void Reliability::on_data(sim::Time t, int src, std::uint64_t seq,
                          std::uint64_t acked) {
  process_ack(src, acked);
  RxChannel& rx = rx_[static_cast<std::size_t>(src)];
  if (seq <= rx.floor || rx.buffered.count(seq) != 0) {
    // Duplicate (wire dup, or a retransmit racing its own ack). Re-ack:
    // the sender retransmitting means our previous ack didn't land.
    ++fabric_->counters().net_dup_discards;
    schedule_ack(t, src);
    return;
  }
  if (seq == rx.floor + 1) {
    const std::uint64_t old_floor = rx.floor;
    rx.floor = seq;
    auto it = rx.buffered.begin();
    while (it != rx.buffered.end() && *it == rx.floor + 1) {
      rx.floor = *it;
      it = rx.buffered.erase(it);
    }
    const std::uint64_t new_floor = rx.floor;
    // Arm the ack BEFORE delivering: the upper layer's reaction may send
    // a reverse frame that cancels it and piggybacks instead.
    schedule_ack(t, src);
    for (std::uint64_t s = old_floor + 1; s <= new_floor; ++s) {
      group_->at(src).deliver_payload(t, node_, s);
    }
  } else {
    rx.buffered.insert(seq);
    schedule_ack(t, src);
  }
}

void Reliability::on_ack(sim::Time /*t*/, int src, std::uint64_t acked) {
  process_ack(src, acked);
}

void Reliability::deliver_payload(sim::Time t, int dst, std::uint64_t seq) {
  sim::Nic::Deliver payload;
  {
    TxChannel& ch = tx_[static_cast<std::size_t>(dst)];
    const auto it = ch.unacked.find(seq);
    NVGAS_CHECK_MSG(it != ch.unacked.end(),
                    "payload consumed for a retired seq");
    TxSlot& s = slots_[static_cast<std::size_t>(it->second)];
    NVGAS_CHECK_MSG(!s.delivered, "payload consumed twice");
    s.delivered = true;
    // Move out before invoking: the payload may reentrantly send() and
    // grow slots_, invalidating `s`. Nothing touches the slot afterwards.
    payload = std::move(s.payload);
  }
  payload(t);
}

void Reliability::process_ack(int dst, std::uint64_t acked) {
  TxChannel& ch = tx_[static_cast<std::size_t>(dst)];
  while (!ch.unacked.empty()) {
    const auto it = ch.unacked.begin();
    if (it->first > acked) break;
    TxSlot& s = slots_[static_cast<std::size_t>(it->second)];
    // The receiver's floor only advances on accept, which synchronously
    // consumed the payload here at the sender — so a covered seq is
    // always delivered.
    NVGAS_CHECK_MSG(s.delivered, "cumulative ack covers an undelivered seq");
    if (s.rto.valid()) {
      (void)fabric_->engine().cancel(s.rto);
    }
    retire_slot(it->second);
    ch.unacked.erase(it);
  }
}

void Reliability::schedule_ack(sim::Time t, int src) {
  RxChannel& rx = rx_[static_cast<std::size_t>(src)];
  if (rx.ack_armed) return;
  rx.ack_armed = true;
  rx.ack_timer = fabric_->engine().at_cancellable(
      t + kAckDelayNs, [this, src] {
        RxChannel& r = rx_[static_cast<std::size_t>(src)];
        r.ack_armed = false;
        r.ack_timer = {};
        send_pure_ack(fabric_->engine().now(), src);
      });
}

void Reliability::send_pure_ack(sim::Time t, int dst) {
  ++fabric_->counters().net_acks;
  // Pure acks are unsequenced and unretransmitted; the wire may eat
  // them, in which case the peer's next retransmit solicits another.
  Reliability* peer = &group_->at(dst);
  const int src = node_;
  const std::uint64_t acked = rx_[static_cast<std::size_t>(dst)].floor;
  fabric_->nic(node_).send(
      t, dst, kRelHeaderBytes,
      [peer, src, acked](sim::Time at) { peer->on_ack(at, src, acked); });
}

std::uint64_t Reliability::unacked() const {
  std::uint64_t n = 0;
  for (const auto& ch : tx_) n += ch.unacked.size();
  return n;
}

#ifdef NVGAS_SIMSAN
void Reliability::simsan_double_cancel_rto(int dst) {
  TxChannel& ch = tx_.at(static_cast<std::size_t>(dst));
  NVGAS_CHECK_MSG(!ch.unacked.empty(), "no unacked slot to cancel");
  TxSlot& s = slots_[static_cast<std::size_t>(ch.unacked.begin()->second)];
  (void)fabric_->engine().cancel(s.rto);
  (void)fabric_->engine().cancel(s.rto);  // double cancel: SimSan aborts
}
#endif

ReliabilityGroup::ReliabilityGroup(sim::Fabric& fabric) {
  // protolint:allow(P4: simulator-host array, one Reliability instance per simulated node)
  rels_.reserve(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    rels_.push_back(std::make_unique<Reliability>(fabric, n, *this));
  }
}

void channel_send(sim::Fabric& fabric, ReliabilityGroup& rel, int from,
                  int dst, sim::Time depart, std::uint64_t bytes,
                  sim::Nic::Deliver fn) {
  if (from == dst || fabric.faults() == nullptr) {
    fabric.nic(from).send(depart, dst, bytes, std::move(fn));
    return;
  }
  rel.at(from).send(depart, dst, bytes, std::move(fn));
}

}  // namespace nvgas::net
