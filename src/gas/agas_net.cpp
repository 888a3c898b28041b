#include "gas/agas_net.hpp"

#include <utility>

#include "gas/invariants.hpp"
#include "util/format.hpp"

namespace nvgas::gas {

namespace {
constexpr std::uint64_t kOpHeaderBytes = 40;
constexpr std::uint64_t kReplyBytes = 40;  // completion + piggybacked entry
constexpr std::uint64_t kCtrlBytes = 32;   // migration control messages
constexpr int kMaxHops = 64;               // forwarding-loop watchdog
}  // namespace

void AgasNet::piggyback(int node, std::uint64_t key, net::TlbEntry entry) {
  // The copy never replaces a pinned entry — the home's authoritative one
  // (it would unpin it and clear the in-flight flag), or the one a new
  // owner installed while this reply was in flight — nor a newer one.
  entry.pinned = false;
  entry.in_flight = false;
  if (tlb_mut(node).update(key, entry)) {
    ++fabric_->counters().nic_tlb_updates;
  }
}

void AgasNet::complete(sim::Time t, std::uint32_t id) {
  // The id is free before the callback runs, which may issue more ops.
  Op op = ops_.unpark(id);
  switch (op.kind) {
    case Op::Kind::kPut:
      if (op.on_done) op.on_done(t);
      break;
    case Op::Kind::kGet:
      if (op.on_data) op.on_data(t, std::move(op.data));
      break;
    case Op::Kind::kFadd:
      if (op.on_u64) op.on_u64(t, op.fadd_old);
      break;
  }
}

std::uint64_t AgasNet::Op::wire_bytes() const {
  switch (kind) {
    case Kind::kPut: return kOpHeaderBytes + data.size();
    case Kind::kGet: return kOpHeaderBytes;
    case Kind::kFadd: return kOpHeaderBytes + 8;
  }
  return kOpHeaderBytes;
}

AgasNet::AgasNet(sim::Fabric& fabric, net::EndpointGroup& endpoints,
                 GlobalHeap& heap, AgasNetConfig config)
    : GasBase(fabric, endpoints, heap) {
  // Host array of per-node NIC TLB devices; each TLB is capacity-bounded,
  // so per-simulated-node state stays O(tlb_capacity), not O(P).
  // protolint:allow(P4: host array of capacity-bounded per-node TLB devices)
  tlbs_.reserve(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    tlbs_.emplace_back(config.tlb_capacity);
  }
}

Gva AgasNet::alloc(sim::TaskCtx& task, int node, Dist dist,
                   std::uint32_t nblocks, std::uint32_t block_size) {
  const Gva base = GasBase::alloc(task, node, dist, nblocks, block_size);
  const AllocMeta& m = heap_->meta_of(base);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const Gva block = Gva::make(m.dist, m.creator, m.id, b, 0);
    const int home = home_of(block);
    net::TlbEntry e;
    e.owner = home;
    e.base = heap_->initial_lva(block);
    e.generation = 0;
    e.pinned = true;  // home entries are authoritative and never evict
    tlb_mut(home).insert(block.block_key(), e);
  }
  return base;
}

// ---------------------------------------------------------------------------
// Data path.
// ---------------------------------------------------------------------------

void AgasNet::issue(sim::TaskCtx& task, int node, std::uint32_t id) {
  auto& counters = fabric_->counters();
  // CPU posts the descriptor; everything after is NIC work.
  task.charge(ep(node).post_cost());
  auto& nic = fabric_->nic(node);
  const sim::Time looked_up = nic.occupy_command_processor(
      task.now(), sim::kNicTlbNs);

  const std::uint64_t key = ops_[id].key;
  const auto hit = tlb_mut(node).lookup(key);
  if (hit.has_value()) {
    ++counters.nic_tlb_hits;
    if (hit->owner == node && !hit->in_flight) {
      // Local fast path: the block is here; a plain memcpy suffices.
      execute(looked_up, node, *hit, id);
      return;
    }
    send_op(looked_up, node, hit->owner, id);
    return;
  }
  ++counters.nic_tlb_misses;
  const int home = home_of(Gva(key));
  if (home == node) {
    // We ARE the home but hold no entry — only possible for a foreign
    // (unallocated) address.
    NVGAS_CHECK_MSG(false, "gva op on unallocated address");
  }
  send_op(looked_up, node, home, id);
}

void AgasNet::send_op(sim::Time depart, int from, int to, std::uint32_t id) {
  Op& op = ops_[id];
  NVGAS_CHECK_MSG(op.hops < kMaxHops, "gva op forwarding loop");
  ++op.hops;
  ep(from).raw_send(depart, to, op.wire_bytes(),
                    [this, to, id](sim::Time t) { route(t, to, id); });
}

void AgasNet::route(sim::Time t, int at, std::uint32_t id) {
  Op& op = ops_[id];
  auto& counters = fabric_->counters();
  auto& nic = fabric_->nic(at);
  const sim::Time looked_up = nic.occupy_command_processor(t, sim::kNicTlbNs);

  net::TlbEntry* e = tlb_mut(at).find(op.key);
  const int home = home_of(Gva(op.key));

  if (e != nullptr && e->owner == at && !e->in_flight) {
    execute(looked_up, at, *e, id);
    return;
  }

  if (at == home) {
    NVGAS_CHECK_MSG(e != nullptr, "home NIC lost its pinned entry");
    if (e->in_flight) {
      // Block is mid-migration: the home parks the op and re-dispatches
      // it at commit (no CPU anywhere).
      moves_.park(op.key, id);
      return;
    }
    // Authoritative forward.
    ++counters.nic_forwards;
    const sim::Time fwd =
        nic.occupy_command_processor(looked_up, sim::kNicFwdNs);
    send_op(fwd, at, e->owner, id);
    return;
  }

  // Stale or missing entry at a non-home NIC: follow a previous-owner
  // hint straight to where the block went, otherwise defer to the home.
  // Only one hint hop is allowed per op — after that the home (which
  // queues during an in-flight migration) is authoritative — so two NICs
  // with mutually stale hints cannot bounce an op between themselves.
  int next = home;
  if (e != nullptr && e->owner != at && !op.used_hint) {
    op.used_hint = true;
    next = e->owner;
  }
  ++counters.nic_forwards;
  const sim::Time fwd = nic.occupy_command_processor(looked_up, sim::kNicFwdNs);
  send_op(fwd, at, next, id);
}

void AgasNet::execute(sim::Time t, int owner, const net::TlbEntry& entry,
                      std::uint32_t id) {
  Op& op = ops_[id];
  op.entry = entry;
  const sim::Lva lva = entry.base + op.offset;
  switch (op.kind) {
    case Op::Kind::kPut:
      ep(owner).nic_write(t, lva, std::move(op.data),
                          [this, owner, id](sim::Time done) {
                            // Moved out first: the remote completion
                            // ledger's callback may issue ops.
                            const net::OnDone on_remote =
                                std::move(ops_[id].on_remote);
                            if (on_remote) on_remote(done);
                            reply(done, owner, id);
                          });
      break;
    case Op::Kind::kGet:
      ep(owner).nic_read(t, lva, op.len,
                         [this, owner, id](sim::Time done,
                                           std::vector<std::byte> data) {
                           ops_[id].data = std::move(data);
                           reply(done, owner, id);
                         });
      break;
    case Op::Kind::kFadd: {
      const std::uint64_t operand = op.operand;
      ep(owner).nic_atomic(
          t,
          [lva, operand](sim::Memory& mem) { return mem.fetch_add_u64(lva, operand); },
          [this, owner, id](sim::Time done, std::uint64_t old) {
            ops_[id].fadd_old = old;
            reply(done, owner, id);
          });
      break;
    }
  }
}

void AgasNet::reply(sim::Time depart, int owner, std::uint32_t id) {
  const Op& op = ops_[id];
  const int src = op.src;
  if (src == owner) {
    // Local op: complete immediately, no ack message.
    complete(depart, id);
    return;
  }

  const std::uint64_t bytes =
      kReplyBytes + (op.kind == Op::Kind::kGet ? op.data.size() : 0);
  ep(owner).raw_send(depart, src, bytes, [this, src, id](sim::Time t) {
    auto& src_nic = fabric_->nic(src);
    sim::Time done = src_nic.occupy_command_processor(t, sim::kNicTlbNs);
    const Op& arrived = ops_[id];
    piggyback(src, arrived.key, arrived.entry);
    if (arrived.kind == Op::Kind::kGet) {
      done = src_nic.occupy_dma(done, arrived.data.size());
    }
    fabric_->engine().at(done, [this, done, id] { complete(done, id); });
  });
}

AgasNet::Op AgasNet::make_op(Op::Kind kind, int src, Gva addr) {
  Op op;
  op.kind = kind;
  op.src = src;
  op.key = addr.block_key();
  op.offset = addr.offset();
  return op;
}

template <typename... Args>
void AgasNet::observe_op(int node, std::uint64_t key,
                         std::function<void(sim::Time, Args...)>& done) {
  if (observer_ == nullptr) return;
  observer_->on_remote_op_begin(node, key);
  done = [obs = observer_, node, key, inner = std::move(done)](sim::Time t,
                                                               Args... args) {
    obs->on_remote_op_end(node, key);
    if (inner) inner(t, std::move(args)...);
  };
}

void AgasNet::do_memput(sim::TaskCtx& task, int node, Gva dst,
                        std::vector<std::byte> data, net::OnDone done,
                        net::OnDone remote_notify) {
  Op op = make_op(Op::Kind::kPut, node, dst);
  op.data = std::move(data);
  op.on_done = std::move(done);
  op.on_remote = std::move(remote_notify);
  observe_op(node, op.key, op.on_done);
  issue(task, node, ops_.park(std::move(op)));
}

void AgasNet::do_memget(sim::TaskCtx& task, int node, Gva src,
                        std::size_t len, net::OnData done) {
  Op op = make_op(Op::Kind::kGet, node, src);
  op.len = static_cast<std::uint32_t>(len);
  op.on_data = std::move(done);
  observe_op(node, op.key, op.on_data);
  issue(task, node, ops_.park(std::move(op)));
}

void AgasNet::do_fetch_add(sim::TaskCtx& task, int node, Gva addr,
                           std::uint64_t operand, net::OnU64 done) {
  Op op = make_op(Op::Kind::kFadd, node, addr);
  op.operand = operand;
  op.on_u64 = std::move(done);
  observe_op(node, op.key, op.on_u64);
  issue(task, node, ops_.park(std::move(op)));
}

void AgasNet::do_resolve(sim::TaskCtx& task, int node, Gva addr,
                         OnOwner done) {
  // The CPU consults the local NIC TLB; on a miss the home NIC answers
  // (one round trip, no CPU at the home).
  task.charge(sim::kNicTlbNs);
  const std::uint64_t key = addr.block_key();
  if (const auto hit = tlb_mut(node).lookup(key)) {
    ++fabric_->counters().nic_tlb_hits;
    done(task.now(), hit->owner);
    return;
  }
  ++fabric_->counters().nic_tlb_misses;
  const int home = home_of(addr.block_base());
  task.charge(ep(node).post_cost());
  ep(node).raw_send(
      task.now(), home, kCtrlBytes,
      [this, key, node, home, done = std::move(done)](sim::Time t) mutable {
        auto& hnic = fabric_->nic(home);
        const sim::Time looked =
            hnic.occupy_command_processor(t, sim::kNicTlbNs);
        net::TlbEntry* e = tlb_mut(home).find(key);
        NVGAS_CHECK_MSG(e != nullptr, "resolve of unallocated address");
        const net::TlbEntry entry = *e;
        ep(home).raw_send(looked, node, kReplyBytes,
                  [this, key, node, entry, done = std::move(done)](sim::Time t2) mutable {
                    auto& snic = fabric_->nic(node);
                    const sim::Time done_t = snic.occupy_command_processor(
                        t2, sim::kNicTlbNs);
                    piggyback(node, key, entry);
                    fabric_->engine().at(done_t, [done_t, owner = entry.owner,
                                                  done = std::move(done)] {
                      done(done_t, owner);
                    });
                  });
      });
}

// ---------------------------------------------------------------------------
// Migration: NIC-managed, one CPU task total (dst allocation).
// ---------------------------------------------------------------------------

void AgasNet::migrate(sim::TaskCtx& task, int node, Gva block, int dst,
                      net::OnDone done) {
  NVGAS_CHECK(dst >= 0 && dst < ranks());
  const Gva base = block.block_base();
  const int home = home_of(base);
  task.charge(ep(node).post_cost());
  ep(node).raw_send(task.now(), home, kCtrlBytes,
                    [this, base, dst, node,
                     done = std::move(done)](sim::Time t) mutable {
                      mig_request(t, base, {dst, node, std::move(done)});
                    });
}

void AgasNet::mig_request(sim::Time t, Gva block_base, MoveRequest req) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of(block_base);
  auto& hnic = fabric_->nic(home);
  const sim::Time looked = hnic.occupy_command_processor(t, sim::kNicTlbNs);

  net::TlbEntry* e = tlb_mut(home).find(key);
  NVGAS_CHECK_MSG(e != nullptr, "migrate of unallocated address");
  if (e->in_flight) {
    moves_.queue(key, std::move(req));
    return;
  }
  if (e->owner == req.dst) {
    notify_initiator(looked, home, std::move(req));
    if (auto next = moves_.next(key)) {
      mig_request(looked, block_base, std::move(*next));
    }
    return;
  }

  e->in_flight = true;
  if (observer_ != nullptr) observer_->on_migration_start(key);
  const int dst = moves_.begin(key, std::move(req)).dst;

  // The single CPU involvement: the destination allocates backing store
  // (registered memory management is software's job even here).
  const std::uint32_t bsize = heap_->meta_of(block_base).block_size;
  ep(home).send_to_cpu(looked, dst, kCtrlBytes,
                       [this, block_base, dst, home, bsize](sim::TaskCtx& task) {
                         task.charge(kAllocBlockNs);
                         const sim::Lva lva = heap_->store(dst).allocate(bsize);
                         task.charge(ep(dst).post_cost());
                         ep(dst).raw_send(task.now(), home, kCtrlBytes,
                                          [this, block_base, lva](sim::Time t3) {
                                            mig_alloc_ok(t3, block_base, lva);
                                          });
                       });
}

void AgasNet::mig_alloc_ok(sim::Time t, Gva block_base, sim::Lva dst_lva) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of(block_base);
  auto& mig = moves_.move(key);
  mig.dst_lva = dst_lva;

  net::TlbEntry* e = tlb_mut(home).find(key);
  NVGAS_CHECK(e != nullptr && e->in_flight);
  const int owner = e->owner;
  const sim::Lva old_lva = e->base;
  const std::uint32_t next_gen = e->generation + 1;
  const std::uint32_t bsize = heap_->meta_of(block_base).block_size;
  const int dst = mig.dst;

  // XFER command to the current owner's NIC: DMA-read the block and ship
  // it to the destination NIC, which installs it and reports back.
  auto& hnic = fabric_->nic(home);
  const sim::Time cmd = hnic.occupy_command_processor(t, sim::kNicFwdNs);
  ep(home).raw_send(cmd, owner, kCtrlBytes,
                    [this, block_base, key, owner, dst, old_lva,
                     dst_lva, bsize, next_gen, home](sim::Time t2) {
    // The old owner stops executing ops for this block the moment the
    // XFER arrives: any op already serialized through the command
    // processor lands in memory before the DMA read below, and any op
    // arriving afterwards sees the hint and forwards — so no acked write
    // can be lost by the copy.
    if (owner != home) {
      net::TlbEntry hint;
      hint.owner = dst;
      hint.base = dst_lva;
      hint.generation = next_gen;
      hint.pinned = false;
      tlb_mut(owner).erase(key);
      tlb_mut(owner).insert(key, hint);
    }

    ep(owner).nic_read(t2, old_lva, bsize, [this, block_base, key, owner, dst,
                                            old_lva, dst_lva, bsize, next_gen,
                                            home](sim::Time read_done,
                                                  std::vector<std::byte> data) {
      heap_->store(owner).release(old_lva, bsize);
      ep(owner).raw_send(
          read_done, dst, kOpHeaderBytes + bsize,
          [this, block_base, key, dst, dst_lva, next_gen, home,
           data = std::move(data)](sim::Time t3) mutable {
            ep(dst).nic_write(t3, dst_lva, std::move(data),
                              [this, block_base, key, dst, dst_lva, next_gen,
                               home](sim::Time write_done) {
              if (dst != home) {
                net::TlbEntry owned;
                owned.owner = dst;
                owned.base = dst_lva;
                owned.generation = next_gen;
                owned.pinned = true;
                tlb_mut(dst).erase(key);
                tlb_mut(dst).insert(key, owned);
              }
              ep(dst).raw_send(write_done, home, kCtrlBytes,
                               [this, block_base](sim::Time t4) {
                                 mig_commit(t4, block_base);
                               });
            });
          });
    });
  });
}

void AgasNet::mig_commit(sim::Time t, Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of(block_base);
  auto& hnic = fabric_->nic(home);
  const sim::Time committed = hnic.occupy_command_processor(t, sim::kNicTlbNs);

  auto [mig, parked] = moves_.commit(key);

  // Atomic remap of the authoritative entry.
  net::TlbEntry* e = tlb_mut(home).find(key);
  NVGAS_CHECK(e != nullptr && e->in_flight);
  e->owner = mig.dst;
  e->base = mig.dst_lva;
  ++e->generation;
  e->in_flight = false;
  if (observer_ != nullptr) {
    observer_->on_migration_commit(key, e->owner, e->generation);
  }

  auto& counters = fabric_->counters();
  ++counters.migrations;
  counters.migration_bytes += heap_->meta_of(block_base).block_size;

  // Re-dispatch ops parked during the move (forward to new owner).
  sim::Time depart = committed;
  for (const std::uint32_t id : parked) {
    depart = hnic.occupy_command_processor(depart, sim::kNicFwdNs);
    ++counters.nic_forwards;
    send_op(depart, home, mig.dst, id);
  }

  notify_initiator(committed, home, std::move(mig));
  if (auto next = moves_.next(key)) {
    mig_request(committed, block_base, std::move(*next));
  }
}

void AgasNet::notify_initiator(sim::Time depart, int home, MoveRequest req) {
  if (!req.done) return;
  ep(home).raw_send(depart, req.initiator, kCtrlBytes,
                    [done = std::move(req.done)](sim::Time t) { done(t); });
}

std::pair<int, sim::Lva> AgasNet::drop_block_state(Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of(block_base);
  net::TlbEntry* e = tlb_mut(home).find(key);
  NVGAS_CHECK(e != nullptr);
  moves_.check_not_moving(key);
  const std::pair<int, sim::Lva> place{e->owner, e->base};
  // Collective free: every NIC drops its entry (pinned or cached).
  for (auto& tlb : tlbs_) tlb.erase(key);
  return place;
}

std::string AgasNet::audit_translation() const {
  const int n_nodes = fabric_->nodes();
  for (int n = 0; n < n_nodes; ++n) {
    for (const auto& [key, e] : tlb(n).entries()) {
      const auto k = static_cast<unsigned long long>(key);
      const int home = Gva(key).home(n_nodes);
      const net::TlbEntry* auth = tlb(home).peek(key);
      if (auth == nullptr) {
        return util::format(
            "node %d holds a TLB entry for block %llx with no home entry at "
            "node %d",
            n, k, home);
      }
      if (n == home) {
        if (!e.pinned) {
          return util::format("home entry for block %llx at node %d is not "
                              "pinned",
                              k, home);
        }
        // A committed owner other than the home executes ops through its
        // own pinned copy of the home's entry.
        if (!e.in_flight && e.owner != home) {
          const net::TlbEntry* own = tlb(e.owner).peek(key);
          if (own == nullptr || !own->pinned ||
              own->generation != e.generation || own->base != e.base) {
            return util::format(
                "owner %d of block %llx lost its pinned entry", e.owner, k);
          }
        }
        continue;
      }
      if (e.in_flight) {
        return util::format(
            "in-flight flag for block %llx leaked to non-home node %d", k, n);
      }
      // While a remap is in flight the destination (pinned) and previous
      // owner (hint) may already carry generation+1; otherwise nothing may
      // run ahead of the home.
      const std::uint32_t allowed =
          auth->generation + (auth->in_flight ? 1u : 0u);
      if (e.generation > allowed) {
        return util::format(
            "node %d holds generation %u of block %llx beyond the "
            "authoritative generation %u (in_flight=%d)",
            n, e.generation, k, auth->generation,
            static_cast<int>(auth->in_flight));
      }
      if (!auth->in_flight && e.generation == auth->generation &&
          (e.owner != auth->owner || e.base != auth->base)) {
        return util::format(
            "current-generation entry for block %llx at node %d says "
            "{owner=%d base=%llx} but the home says {owner=%d base=%llx}",
            k, n, e.owner, static_cast<unsigned long long>(e.base),
            auth->owner, static_cast<unsigned long long>(auth->base));
      }
      if (e.pinned && e.owner != n) {
        return util::format(
            "pinned entry for block %llx at node %d, which is neither its "
            "home (%d) nor its owner (%d)",
            k, n, home, e.owner);
      }
    }
  }
  return {};
}

std::string AgasNet::audit_quiescent() const {
  if (std::string err = moves_.audit_quiescent(); !err.empty()) return err;
  if (const Op* op = ops_.first()) {
    return util::format(
        "%zu op(s) never completed; the first is on block %llx from node "
        "%d after %d hop(s)",
        ops_.size(), static_cast<unsigned long long>(op->key), op->src,
        op->hops);
  }
  const int n_nodes = fabric_->nodes();
  for (int n = 0; n < n_nodes; ++n) {
    for (const auto& [key, e] : tlb(n).entries()) {
      if (e.in_flight && !moves_.moving(key)) {
        return util::format(
            "block %llx still marked in-flight at node %d with no move in "
            "flight",
            static_cast<unsigned long long>(key), n);
      }
    }
  }
  return {};
}

std::pair<int, sim::Lva> AgasNet::owner_of(Gva block) const {
  const Gva base = block.block_base();
  const int home = base.home(fabric_->nodes());
  const net::TlbEntry* e = tlb(home).peek(base.block_key());
  NVGAS_CHECK(e != nullptr);
  return {e->owner, e->base};
}

}  // namespace nvgas::gas
