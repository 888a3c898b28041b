#include "core/agas_net.hpp"

#include <utility>

#include "gas/invariants.hpp"
#include "util/format.hpp"

namespace nvgas::core {

namespace {
constexpr std::uint64_t kOpHeaderBytes = 40;
constexpr std::uint64_t kAckBytes = 40;   // completion + piggybacked entry
constexpr std::uint64_t kCtrlBytes = 32;  // migration control messages
constexpr int kMaxHops = 64;              // forwarding-loop watchdog
}  // namespace

void AgasNet::maybe_piggyback(int node, std::uint64_t key,
                              const net::TlbEntry& update) {
  if (!config_.piggyback_updates) return;
  // The home's pinned entry is authoritative — a piggybacked copy must
  // never overwrite it (it would unpin it and clear the in-flight flag).
  if (node == home_of(base_of_key(key))) return;
  if (tlb_mut(node).insert(key, update)) {
    ++fabric_->counters().nic_tlb_updates;
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
                 gas::GlobalHeap& heap, gas::GasCosts costs,
                 AgasNetConfig config)
    : GasBase(fabric, endpoints, heap, costs), config_(config) {
  // Host array of per-node NIC TLB devices; each TLB is capacity-bounded,
  // so per-simulated-node state stays O(tlb_capacity), not O(P).
  // protolint:allow(P4: host array of capacity-bounded per-node TLB devices)
  tlbs_.reserve(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    tlbs_.push_back(std::make_unique<net::NicTlb>(config_.tlb_capacity));
  }
  // The home directory is the AGAS authoritative map, one per world.
  // protolint:allow(P4: world-level AGAS home directory, one per simulated node)
  homes_.resize(static_cast<std::size_t>(fabric.nodes()));
}

gas::Gva AgasNet::alloc(sim::TaskCtx& task, int node, gas::Dist dist,
                        std::uint32_t nblocks, std::uint32_t block_size) {
  const gas::Gva base = GasBase::alloc(task, node, dist, nblocks, block_size);
  const gas::AllocMeta& m = heap_->meta_of(base);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const gas::Gva block = gas::Gva::make(m.dist, m.creator, m.id, b, 0);
    const int home = home_of(block);
    net::TlbEntry e;
    e.owner = home;
    e.base = heap_->initial_lva(block);
    e.generation = 0;
    e.pinned = true;  // home entries are authoritative and never evict
    NVGAS_CHECK(tlb_mut(home).insert(block.block_key(), e));
  }
  return base;
}

// ---------------------------------------------------------------------------
// Data path.
// ---------------------------------------------------------------------------

void AgasNet::issue(sim::TaskCtx& task, int node, Op op) {
  auto& counters = fabric_->counters();
  // CPU posts the descriptor; everything after is NIC work.
  task.charge(ep(node).post_cost());
  auto& nic = fabric_->nic(node);
  const sim::Time looked_up = nic.occupy_command_processor(
      task.now(), fabric_->params().nic_tlb_ns);

  const auto hit = tlb_mut(node).lookup(op.key);
  if (hit.has_value()) {
    ++counters.nic_tlb_hits;
    if (hit->owner == node && !hit->in_flight) {
      // Local fast path: the block is here; a plain memcpy suffices.
      execute(looked_up, node, *hit, std::move(op));
      return;
    }
    send_op(looked_up, node, hit->owner, std::move(op));
    return;
  }
  ++counters.nic_tlb_misses;
  const int home = home_of(base_of_key(op.key));
  if (home == node) {
    // We ARE the home but hold no entry — only possible for a foreign
    // (unallocated) address.
    NVGAS_CHECK_MSG(false, "gva op on unallocated address");
  }
  send_op(looked_up, node, home, std::move(op));
}

void AgasNet::send_op(sim::Time depart, int from, int to, Op op) {
  NVGAS_CHECK_MSG(op.hops < kMaxHops, "gva op forwarding loop");
  ++op.hops;
  const std::uint64_t bytes = op.wire_bytes();
  ep(from).raw_send(depart, to, bytes,
                    [this, to, op = std::move(op)](sim::Time t) mutable {
                      route(t, to, std::move(op));
                    });
}

void AgasNet::route(sim::Time t, int at, Op op) {
  auto& counters = fabric_->counters();
  auto& nic = fabric_->nic(at);
  const sim::Time looked_up =
      nic.occupy_command_processor(t, fabric_->params().nic_tlb_ns);

  net::TlbEntry* e = tlb_mut(at).find(op.key);
  const int home = home_of(base_of_key(op.key));

  if (e != nullptr && e->owner == at && !e->in_flight) {
    execute(looked_up, at, *e, std::move(op));
    return;
  }

  if (at == home) {
    NVGAS_CHECK_MSG(e != nullptr, "home NIC lost its pinned entry");
    if (e->in_flight) {
      // Block is mid-migration: the home queues the op and re-dispatches
      // it at commit (no CPU anywhere).
      hstate(op.key).queued_ops[op.key].push_back(std::move(op));
      return;
    }
    // Authoritative forward.
    ++counters.nic_forwards;
    const sim::Time fwd =
        nic.occupy_command_processor(looked_up, fabric_->params().nic_fwd_ns);
    send_op(fwd, at, e->owner, std::move(op));
    return;
  }

  // Stale or missing entry at a non-home NIC.
  if (config_.nack_on_stale) {
    // NACK back to the source; its NIC drops the entry and retries via
    // the home. (R-T3 ablation: costs a full extra round trip.)
    const int src = op.src;
    const sim::Time nack_t =
        nic.occupy_command_processor(looked_up, fabric_->params().nic_fwd_ns);
    ep(at).raw_send(
        nack_t, src, kCtrlBytes, [this, src, op = std::move(op)](sim::Time t2) mutable {
          auto& src_nic = fabric_->nic(src);
          const sim::Time done = src_nic.occupy_command_processor(
              t2, fabric_->params().nic_tlb_ns);
          const int home2 = home_of(base_of_key(op.key));
          if (src != home2) tlb_mut(src).erase(op.key);  // never the pinned entry
          send_op(done, src, home2, std::move(op));
        });
    return;
  }

  if (e != nullptr && e->owner != at && config_.forward_hints && !op.used_hint) {
    // Previous-owner hint: forward straight to where the block went. Only
    // one hint hop is allowed per op — after that the home (which queues
    // during an in-flight migration) is authoritative — so two NICs with
    // mutually stale hints cannot bounce an op between themselves.
    op.used_hint = true;
    ++counters.nic_forwards;
    const sim::Time fwd =
        nic.occupy_command_processor(looked_up, fabric_->params().nic_fwd_ns);
    send_op(fwd, at, e->owner, std::move(op));
    return;
  }

  // No knowledge here: defer to the home.
  ++counters.nic_forwards;
  const sim::Time fwd =
      nic.occupy_command_processor(looked_up, fabric_->params().nic_fwd_ns);
  send_op(fwd, at, home, std::move(op));
}

void AgasNet::execute(sim::Time t, int owner, const net::TlbEntry& entry,
                      Op op) {
  auto& nic = fabric_->nic(owner);
  const auto& p = fabric_->params();
  const sim::Lva lva = entry.base + op.offset;

  switch (op.kind) {
    case Op::Kind::kPut: {
      const sim::Time done =
          nic.occupy_command_processor(t, p.nic_dma_ns + p.copy_time(op.data.size()));
      fabric_->engine().at(done, [this, owner, lva, entry, done,
                                  op = std::move(op)]() mutable {
        fabric_->mem(owner).write(lva, op.data);
        if (op.on_remote) op.on_remote(done);  // remote completion ledger
        reply(done, owner, entry, std::move(op), {}, 0);
      });
      break;
    }
    case Op::Kind::kGet: {
      const sim::Time done =
          nic.occupy_command_processor(t, p.nic_dma_ns + p.copy_time(op.len));
      fabric_->engine().at(done, [this, owner, lva, entry, done,
                                  op = std::move(op)]() mutable {
        std::vector<std::byte> data = fabric_->mem(owner).read_vec(lva, op.len);
        reply(done, owner, entry, std::move(op), std::move(data), 0);
      });
      break;
    }
    case Op::Kind::kFadd: {
      const sim::Time done = nic.occupy_command_processor(t, p.nic_atomic_ns);
      fabric_->engine().at(done, [this, owner, lva, entry, done,
                                  op = std::move(op)]() mutable {
        const std::uint64_t old =
            fabric_->mem(owner).fetch_add_u64(lva, op.operand);
        reply(done, owner, entry, std::move(op), {}, old);
      });
      break;
    }
  }
}

void AgasNet::reply(sim::Time depart, int owner, const net::TlbEntry& entry,
                    Op op, std::vector<std::byte> get_data,
                    std::uint64_t fadd_old) {
  const int src = op.src;
  if (src == owner) {
    // Local op: complete immediately, no ack message.
    switch (op.kind) {
      case Op::Kind::kPut:
        if (op.on_done) op.on_done(depart);
        break;
      case Op::Kind::kGet:
        if (op.on_data) op.on_data(depart, std::move(get_data));
        break;
      case Op::Kind::kFadd:
        if (op.on_u64) op.on_u64(depart, fadd_old);
        break;
    }
    return;
  }

  const std::uint64_t bytes =
      kAckBytes + (op.kind == Op::Kind::kGet ? get_data.size() : 0);
  net::TlbEntry update = entry;  // piggybacked translation
  update.pinned = false;
  update.in_flight = false;

  ep(owner).raw_send(
      depart, src, bytes,
      [this, src, update, fadd_old, op = std::move(op),
       get_data = std::move(get_data)](sim::Time t) mutable {
        auto& src_nic = fabric_->nic(src);
        const auto& p = fabric_->params();
        sim::Time done = src_nic.occupy_command_processor(t, p.nic_tlb_ns);
        maybe_piggyback(src, op.key, update);
        if (op.kind == Op::Kind::kGet) {
          done = src_nic.occupy_command_processor(
              done, p.nic_dma_ns + p.copy_time(get_data.size()));
        }
        fabric_->engine().at(done, [done, fadd_old, op = std::move(op),
                                    get_data = std::move(get_data)]() mutable {
          switch (op.kind) {
            case Op::Kind::kPut:
              if (op.on_done) op.on_done(done);
              break;
            case Op::Kind::kGet:
              if (op.on_data) op.on_data(done, std::move(get_data));
              break;
            case Op::Kind::kFadd:
              if (op.on_u64) op.on_u64(done, fadd_old);
              break;
          }
        });
      });
}

void AgasNet::memput(sim::TaskCtx& task, int node, gas::Gva dst,
                     std::vector<std::byte> data, net::OnDone done) {
  memput_notify(task, node, dst, std::move(data), std::move(done), nullptr);
}

void AgasNet::memput_notify(sim::TaskCtx& task, int node, gas::Gva dst,
                            std::vector<std::byte> data, net::OnDone done,
                            net::OnDone remote_notify) {
  heap_->check_extent(dst, data.size());
  ++fabric_->counters().gas_memputs;
  note_access(node, dst);
  Op op;
  op.kind = Op::Kind::kPut;
  op.src = node;
  op.key = dst.block_key();
  op.offset = dst.offset();
  op.data = std::move(data);
  op.on_done = std::move(done);
  op.on_remote = instrument_signal(std::move(remote_notify));
  if (observer_ != nullptr) {
    observer_->on_remote_op_begin(node, op.key);
    op.on_done = [obs = observer_, node, key = op.key,
                  inner = std::move(op.on_done)](sim::Time t) {
      obs->on_remote_op_end(node, key);
      if (inner) inner(t);
    };
  }
  issue(task, node, std::move(op));
}

void AgasNet::memget(sim::TaskCtx& task, int node, gas::Gva src,
                     std::size_t len, net::OnData done) {
  heap_->check_extent(src, len);
  ++fabric_->counters().gas_memgets;
  note_access(node, src);
  Op op;
  op.kind = Op::Kind::kGet;
  op.src = node;
  op.key = src.block_key();
  op.offset = src.offset();
  op.len = static_cast<std::uint32_t>(len);
  op.on_data = std::move(done);
  if (observer_ != nullptr) {
    observer_->on_remote_op_begin(node, op.key);
    op.on_data = [obs = observer_, node, key = op.key,
                  inner = std::move(op.on_data)](sim::Time t,
                                                 std::vector<std::byte> d) {
      obs->on_remote_op_end(node, key);
      if (inner) inner(t, std::move(d));
    };
  }
  issue(task, node, std::move(op));
}

void AgasNet::fetch_add(sim::TaskCtx& task, int node, gas::Gva addr,
                        std::uint64_t operand, net::OnU64 done) {
  heap_->check_extent(addr, sizeof(std::uint64_t));
  ++fabric_->counters().gas_atomics;
  note_access(node, addr);
  Op op;
  op.kind = Op::Kind::kFadd;
  op.src = node;
  op.key = addr.block_key();
  op.offset = addr.offset();
  op.operand = operand;
  op.on_u64 = std::move(done);
  if (observer_ != nullptr) {
    observer_->on_remote_op_begin(node, op.key);
    op.on_u64 = [obs = observer_, node, key = op.key,
                 inner = std::move(op.on_u64)](sim::Time t, std::uint64_t v) {
      obs->on_remote_op_end(node, key);
      if (inner) inner(t, v);
    };
  }
  issue(task, node, std::move(op));
}

void AgasNet::resolve(sim::TaskCtx& task, int node, gas::Gva addr,
                      gas::OnOwner done) {
  // The CPU consults the local NIC TLB; on a miss the home NIC answers
  // (one round trip, no CPU at the home).
  note_access(node, addr);
  task.charge(fabric_->params().nic_tlb_ns);
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
            hnic.occupy_command_processor(t, fabric_->params().nic_tlb_ns);
        net::TlbEntry* e = tlb_mut(home).find(key);
        NVGAS_CHECK_MSG(e != nullptr, "resolve of unallocated address");
        const net::TlbEntry entry = *e;
        ep(home).raw_send(looked, node, kAckBytes,
                  [this, key, node, entry, done = std::move(done)](sim::Time t2) mutable {
                    auto& snic = fabric_->nic(node);
                    const sim::Time done_t = snic.occupy_command_processor(
                        t2, fabric_->params().nic_tlb_ns);
                    net::TlbEntry update = entry;
                    update.pinned = false;
                    update.in_flight = false;
                    maybe_piggyback(node, key, update);
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

void AgasNet::migrate(sim::TaskCtx& task, int node, gas::Gva block, int dst,
                      net::OnDone done) {
  NVGAS_CHECK(dst >= 0 && dst < ranks());
  const gas::Gva base = block.block_base();
  const int home = home_of(base);
  task.charge(ep(node).post_cost());
  ep(node).raw_send(task.now(), home, kCtrlBytes,
                    [this, base, dst, node,
                     done = std::move(done)](sim::Time t) mutable {
                      mig_request(t, base, dst, node, std::move(done));
                    });
}

void AgasNet::mig_request(sim::Time t, gas::Gva block_base, int dst,
                          int initiator, net::OnDone done) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of(block_base);
  auto& hnic = fabric_->nic(home);
  const sim::Time looked =
      hnic.occupy_command_processor(t, fabric_->params().nic_tlb_ns);

  net::TlbEntry* e = tlb_mut(home).find(key);
  NVGAS_CHECK_MSG(e != nullptr, "migrate of unallocated address");
  if (e->in_flight) {
    hstate(key).queued_migs[key].push_back({dst, initiator, std::move(done)});
    return;
  }
  if (e->owner == dst) {
    notify_initiator(looked, home, initiator, std::move(done));
    chain_queued_migration(looked, block_base);  // keep draining the queue
    return;
  }

  e->in_flight = true;
  if (observer_ != nullptr) observer_->on_migration_start(key);
  hstate(key).migrations[key] = Migration{dst, initiator, 0, std::move(done)};

  // The single CPU involvement: the destination allocates backing store
  // (registered memory management is software's job even here).
  const std::uint32_t bsize = heap_->meta_of(block_base).block_size;
  ep(home).raw_send(looked, dst, kCtrlBytes, [this, block_base, dst, home,
                                              bsize](sim::Time t2) {
    fabric_->cpu(dst).submit_at(t2, [this, block_base, dst, home,
                                     bsize](sim::TaskCtx& task) {
      task.charge(fabric_->params().cpu_recv_overhead_ns + costs_.alloc_block_ns);
      const sim::Lva lva = heap_->store(dst).allocate(bsize);
      task.charge(ep(dst).post_cost());
      ep(dst).raw_send(task.now(), home, kCtrlBytes,
                       [this, block_base, lva](sim::Time t3) {
                         mig_alloc_ok(t3, block_base, lva);
                       });
    });
  });
}

void AgasNet::mig_alloc_ok(sim::Time t, gas::Gva block_base, sim::Lva dst_lva) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of(block_base);
  Migration& mig = hstate(key).migrations.at(key);
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
  const sim::Time cmd =
      hnic.occupy_command_processor(t, fabric_->params().nic_fwd_ns);
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
      (void)tlb_mut(owner).insert(key, hint);
    }

    auto& onic = fabric_->nic(owner);
    const auto& p = fabric_->params();
    const sim::Time read_done =
        onic.occupy_command_processor(t2, p.nic_dma_ns + p.copy_time(bsize));
    fabric_->engine().at(read_done, [this, block_base, key, owner, dst, old_lva,
                                     dst_lva, bsize, next_gen, home,
                                     read_done] {
      std::vector<std::byte> data = fabric_->mem(owner).read_vec(old_lva, bsize);
      (void)next_gen;
      heap_->store(owner).release(old_lva, bsize);

      ep(owner).raw_send(
          read_done, dst, kOpHeaderBytes + bsize,
          [this, block_base, key, dst, dst_lva, bsize, next_gen, home,
           data = std::move(data)](sim::Time t3) mutable {
            auto& dnic = fabric_->nic(dst);
            const auto& pp = fabric_->params();
            const sim::Time write_done = dnic.occupy_command_processor(
                t3, pp.nic_dma_ns + pp.copy_time(bsize));
            fabric_->engine().at(write_done, [this, block_base, key, dst,
                                              dst_lva, next_gen, home,
                                              write_done,
                                              data = std::move(data)]() mutable {
              fabric_->mem(dst).write(dst_lva, data);
              if (dst != home) {
                net::TlbEntry owned;
                owned.owner = dst;
                owned.base = dst_lva;
                owned.generation = next_gen;
                owned.pinned = true;
                tlb_mut(dst).erase(key);
                NVGAS_CHECK(tlb_mut(dst).insert(key, owned));
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

void AgasNet::mig_commit(sim::Time t, gas::Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of(block_base);
  auto& hnic = fabric_->nic(home);
  const sim::Time committed =
      hnic.occupy_command_processor(t, fabric_->params().nic_tlb_ns);

  HomeState& hs = hstate(key);
  Migration mig = std::move(hs.migrations.at(key));
  hs.migrations.erase(key);

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

  // Re-dispatch ops that queued during the move (forward to new owner).
  const auto qit = hs.queued_ops.find(key);
  if (qit != hs.queued_ops.end()) {
    auto ops = std::move(qit->second);
    hs.queued_ops.erase(qit);
    sim::Time depart = committed;
    for (auto& op : ops) {
      depart = hnic.occupy_command_processor(depart, fabric_->params().nic_fwd_ns);
      ++counters.nic_forwards;
      send_op(depart, home, mig.dst, std::move(op));
    }
  }

  notify_initiator(committed, home, mig.initiator, std::move(mig.done));
  chain_queued_migration(committed, block_base);
}

void AgasNet::chain_queued_migration(sim::Time t, gas::Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  HomeState& hs = hstate(key);
  const auto mit = hs.queued_migs.find(key);
  if (mit == hs.queued_migs.end() || mit->second.empty()) return;
  PendingMigration next = std::move(mit->second.front());
  mit->second.erase(mit->second.begin());
  if (mit->second.empty()) hs.queued_migs.erase(mit);
  mig_request(t, block_base, next.dst, next.initiator, std::move(next.done));
}

void AgasNet::notify_initiator(sim::Time depart, int home, int initiator,
                               net::OnDone done) {
  if (!done) return;
  ep(home).raw_send(depart, initiator, kCtrlBytes,
                    [done = std::move(done)](sim::Time t) { done(t); });
}

std::pair<int, sim::Lva> AgasNet::drop_block_state(gas::Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of(block_base);
  net::TlbEntry* e = tlb_mut(home).find(key);
  NVGAS_CHECK(e != nullptr);
  NVGAS_CHECK_MSG(!e->in_flight, "free_alloc while a block is migrating");
  NVGAS_CHECK_MSG(hstate(key).queued_ops.count(key) == 0,
                  "free_alloc with queued ops");
  NVGAS_CHECK_MSG(hstate(key).queued_migs.count(key) == 0,
                  "free_alloc with queued migrations");
  const std::pair<int, sim::Lva> place{e->owner, e->base};
  // Collective free: every NIC drops its entry (pinned or cached).
  for (auto& tlb : tlbs_) tlb->erase(key);
  return place;
}

std::string AgasNet::audit_translation() const {
  const int n_nodes = fabric_->nodes();
  for (int n = 0; n < n_nodes; ++n) {
    for (const auto& [key, e] : tlb(n).entries()) {
      const auto k = static_cast<unsigned long long>(key);
      const int home = base_of_key(key).home(n_nodes);
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
  std::size_t migs = 0, qops = 0, qmigs = 0;
  for (const HomeState& hs : homes_) {
    migs += hs.migrations.size();
    qops += hs.queued_ops.size();
    qmigs += hs.queued_migs.size();
  }
  if (migs != 0) {
    return util::format("%zu migration(s) never committed", migs);
  }
  if (qops != 0) {
    return util::format("%zu block(s) still hold ops queued behind a "
                        "migration",
                        qops);
  }
  if (qmigs != 0) {
    return util::format("%zu block(s) still hold queued migrations", qmigs);
  }
  const int n_nodes = fabric_->nodes();
  for (int n = 0; n < n_nodes; ++n) {
    for (const auto& [key, e] : tlb(n).entries()) {
      if (e.in_flight) {
        return util::format(
            "block %llx still marked in-flight at node %d with no migration "
            "outstanding",
            static_cast<unsigned long long>(key), n);
      }
    }
  }
  return {};
}

std::pair<int, sim::Lva> AgasNet::owner_of(gas::Gva block) const {
  const gas::Gva base = block.block_base();
  const int home = base.home(fabric_->nodes());
  const net::TlbEntry* e = const_cast<AgasNet*>(this)
                               ->tlb_mut(home)
                               .find(base.block_key());
  NVGAS_CHECK(e != nullptr);
  return {e->owner, e->base};
}

}  // namespace nvgas::core
