#include "net/reliability.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace nvgas::net {

Reliability::Reliability(sim::Fabric& fabric, int node, ReliabilityGroup& group)
    : fabric_(&fabric), node_(node), group_(&group) {}

Reliability::Peer& Reliability::peer(int node) {
  const auto it = peers_.find(node);
  NVGAS_CHECK_MSG(it != peers_.end(), "no reliability record for this peer");
  return it->second;
}

std::int32_t Reliability::alloc_slot() {
  if (slots_free_ >= 0) {
    const std::int32_t idx = slots_free_;
    slots_free_ = slots_[static_cast<std::size_t>(idx)].next_free;
    return idx;
  }
  slots_.emplace_back();
  return static_cast<std::int32_t>(slots_.size() - 1);
}

Reliability::TxSlot& Reliability::unacked_slot(Peer& p, std::uint64_t seq,
                                                const char* what) {
  NVGAS_CHECK_MSG(seq >= p.base && seq < p.next_seq, what);
  const std::size_t mask = p.window.size() - 1;
  return slots_[static_cast<std::size_t>(p.window[seq & mask])];
}

void Reliability::retire_slot(std::int32_t idx) {
  TxSlot& s = slots_[static_cast<std::size_t>(idx)];
#ifdef NVGAS_SIMSAN
  s.payload.poison();  // a late consume of a retired slot must abort
#endif
  s.delivered = false;
  s.bytes = 0;
  s.rto = {};
  s.next_free = slots_free_;
  slots_free_ = idx;
}

void Reliability::send(sim::Time depart, int dst, std::uint64_t bytes,
                       sim::Nic::Deliver deliver) {
  NVGAS_CHECK_MSG(dst != node_,
                  "loopback frames never enter the reliability channel");
  Peer& p = open_peer(dst);
  if (p.next_seq - p.base == p.window.size()) {
    // Full: double, re-placing each unacked seq by the wider mask.
    std::vector<std::int32_t> grown(std::max<std::size_t>(8, 2 * p.window.size()));
    for (std::uint64_t q = p.base; q < p.next_seq; ++q) {
      grown[q & (grown.size() - 1)] = p.window[q & (p.window.size() - 1)];
    }
    p.window.swap(grown);
  }
  const std::uint64_t seq = p.next_seq++;
  const std::int32_t idx = alloc_slot();
  p.window[seq & (p.window.size() - 1)] = idx;
  TxSlot& s = slots_[static_cast<std::size_t>(idx)];
  s.bytes = bytes;
  s.payload = std::move(deliver);
  s.rto_ns = kRetransmitTimeoutNs;
  s.delivered = false;
  send_frame(depart, dst, p, seq);
  arm_rto(depart, dst, p, seq);
}

void Reliability::send_frame(sim::Time depart, int dst, Peer& p,
                             std::uint64_t seq) {
  const TxSlot& s = unacked_slot(p, seq, "framing a retired seq");

  // Piggyback our cumulative floor for dst's reverse channel; a pending
  // delayed pure ack becomes redundant and is cancelled.
  if (p.ack_armed) {
    (void)fabric_->engine().cancel(p.ack_timer);
    p.ack_armed = false;
    p.ack_timer = {};
  }
  const std::uint64_t piggy = p.floor;

  // The wire frame: a re-invocable POD closure (survives fault
  // duplication); the payload closure stays in the window slot.
  Reliability* peer = &group_->at(dst);
  Peer* rx = p.mirror;
  const int src = node_;
  fabric_->nic(node_).send(
      depart, dst, kRelHeaderBytes + s.bytes,
      [peer, rx, src, seq, piggy](sim::Time t) {
        peer->on_data(t, src, rx, seq, piggy);
      });
}

void Reliability::arm_rto(sim::Time ref, int dst, Peer& p, std::uint64_t seq) {
  TxSlot& s = unacked_slot(p, seq, "arming RTO for a retired seq");
  Peer* chan = &p;  // records are never freed
  s.rto = fabric_->engine().at_cancellable(
      ref + s.rto_ns, [this, dst, chan, seq] { on_rto(dst, *chan, seq); });
}

void Reliability::on_rto(int dst, Peer& p, std::uint64_t seq) {
  // Retirement cancels the timer, so a fired RTO always finds its slot.
  TxSlot& s = unacked_slot(p, seq, "RTO fired for a retired seq");
  s.rto = {};
  ++fabric_->counters().net_retransmits;
  s.rto_ns = std::min<sim::Time>(s.rto_ns * 2, kRetransmitBackoffCapNs);
  // Resend even if already delivered: the ack was lost, and the
  // retransmitted frame solicits a fresh one via the dedup path.
  const sim::Time now = fabric_->engine().now();
  send_frame(now, dst, p, seq);
  arm_rto(now, dst, p, seq);
}

void Reliability::on_data(sim::Time t, int src, Peer* rx, std::uint64_t seq,
                          std::uint64_t acked) {
  Peer& p = rx != nullptr ? *rx : open_peer(src);
  if (p.mirror == nullptr) {
    Peer& back = group_->at(src).peer(node_);  // src sent, so it has one
    p.mirror = &back;
    back.mirror = &p;
  }
  process_ack(p, acked);
  if (seq <= p.floor || p.buffered.count(seq) != 0) {
    // Duplicate (wire dup, or a retransmit racing its own ack). Re-ack:
    // the sender retransmitting means our previous ack didn't land.
    ++fabric_->counters().net_dup_discards;
    schedule_ack(t, src, p);
    return;
  }
  if (seq == p.floor + 1) {
    const std::uint64_t old_floor = p.floor;
    p.floor = seq;
    auto it = p.buffered.begin();
    while (it != p.buffered.end() && *it == p.floor + 1) {
      p.floor = *it;
      it = p.buffered.erase(it);
    }
    const std::uint64_t new_floor = p.floor;
    // Arm the ack BEFORE delivering: the upper layer's reaction may send
    // a reverse frame that cancels it and piggybacks instead.
    schedule_ack(t, src, p);
    Reliability& sender = group_->at(src);
    for (std::uint64_t s = old_floor + 1; s <= new_floor; ++s) {
      sender.deliver_payload(t, *p.mirror, s);
    }
  } else {
    p.buffered.insert(seq);
    schedule_ack(t, src, p);
  }
}

void Reliability::deliver_payload(sim::Time t, Peer& p, std::uint64_t seq) {
  sim::Nic::Deliver payload;
  {
    TxSlot& s = unacked_slot(p, seq, "payload consumed for a retired seq");
    NVGAS_CHECK_MSG(!s.delivered, "payload consumed twice");
    s.delivered = true;
    // Move out before invoking: the payload may reentrantly send() and
    // grow slots_, invalidating `s`. Nothing touches the slot afterwards.
    payload = std::move(s.payload);
  }
  payload(t);
}

void Reliability::process_ack(Peer& p, std::uint64_t acked) {
  for (; p.base <= acked && p.base < p.next_seq; ++p.base) {
    const std::int32_t idx = p.window[p.base & (p.window.size() - 1)];
    TxSlot& s = slots_[static_cast<std::size_t>(idx)];
    // The receiver's floor only advances on accept, which synchronously
    // consumed the payload here at the sender — so a covered seq is
    // always delivered.
    NVGAS_CHECK_MSG(s.delivered, "cumulative ack covers an undelivered seq");
    if (s.rto.valid()) {
      (void)fabric_->engine().cancel(s.rto);
    }
    retire_slot(idx);
  }
}

void Reliability::schedule_ack(sim::Time t, int src, Peer& p) {
  if (p.ack_armed) return;
  p.ack_armed = true;
  Peer* chan = &p;
  p.ack_timer = fabric_->engine().at_cancellable(
      t + kAckDelayNs, [this, src, chan] {
        chan->ack_armed = false;
        chan->ack_timer = {};
        send_pure_ack(fabric_->engine().now(), src, *chan);
      });
}

void Reliability::send_pure_ack(sim::Time t, int dst, const Peer& p) {
  ++fabric_->counters().net_acks;
  // Pure acks are unsequenced and unretransmitted; the wire may eat
  // them, in which case the peer's next retransmit solicits another.
  Reliability* peer = &group_->at(dst);
  // Linked when the data being acked was accepted.
  Peer* tx = p.mirror;
  NVGAS_CHECK_MSG(tx != nullptr, "pure ack on a channel that accepted nothing");
  const std::uint64_t acked = p.floor;
  fabric_->nic(node_).send(
      t, dst, kRelHeaderBytes,
      [peer, tx, acked](sim::Time) { peer->process_ack(*tx, acked); });
}

std::uint64_t Reliability::unacked() const {
  std::uint64_t n = 0;
  for (const auto& entry : peers_) n += entry.second.next_seq - entry.second.base;
  return n;
}

#ifdef NVGAS_SIMSAN
void Reliability::simsan_double_cancel_rto(int dst) {
  Peer& p = peer(dst);
  TxSlot& s = unacked_slot(p, p.base, "no unacked slot to cancel");
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
