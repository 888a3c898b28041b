#include "gas/agas_sw.hpp"

#include <utility>

#include "gas/invariants.hpp"
#include "util/format.hpp"

namespace nvgas::gas {

namespace {
// Nominal wire sizes for the control messages (headers only).
constexpr std::uint64_t kCtrlBytes = 32;
constexpr std::uint64_t kReplyBytes = 48;
}  // namespace

AgasSw::AgasSw(sim::Fabric& fabric, net::EndpointGroup& endpoints,
               GlobalHeap& heap, GasCosts config)
    : GasBase(fabric, endpoints, heap), config_(config) {
  // Host array of per-node SW translation caches; each grows only as
  // entries arrive, up to sw_cache_capacity, so per-simulated-node state
  // is O(entries cached).
  // protolint:allow(P4: host array of per-node SW caches, each grown on demand up to sw_cache_capacity)
  nodes_.reserve(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    nodes_.emplace_back(config_.sw_cache_capacity);
  }
}

Gva AgasSw::alloc(sim::TaskCtx& task, int node, Dist dist,
                  std::uint32_t nblocks, std::uint32_t block_size) {
  const Gva base = GasBase::alloc(task, node, dist, nblocks, block_size);
  // Install the authoritative directory entries at each block's home as
  // part of the allocation collective.
  const AllocMeta& m = heap_->meta_of(base);
  const std::span<DirEntry> entries = dir_.add(m.id, nblocks);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const Gva block = Gva::make(m.dist, m.creator, m.id, b, 0);
    entries[b].owner = home_of_key(block);
    entries[b].lva = heap_->initial_lva(block);
  }
  return base;
}

void AgasSw::free_alloc(sim::TaskCtx& task, int node, Gva base) {
  GasBase::free_alloc(task, node, base);
  dir_.erase(base.alloc_id());
}

// ---------------------------------------------------------------------------
// Translation.
// ---------------------------------------------------------------------------

void AgasSw::with_translation(sim::TaskCtx& task, int node, Gva block_base,
                              Cont cont) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  auto& counters = fabric_->counters();

  if (node == home) {
    // The home consults its directory directly (CPU cost, no wire).
    task.charge(kDirLookupNs);
    ++counters.directory_lookups;
    const DirEntry& e = dir_.at(block_base);
    if (moves_.moving(key)) {
      moves_.park(key, [this, node, block_base,
                        cont = std::move(cont)](sim::TaskCtx& t2) mutable {
        with_translation(t2, node, block_base, std::move(cont));
      });
      return;
    }
    cont(task, net::TlbEntry{e.owner, e.lva, e.generation});
    return;
  }

  NodeState& ns = st(node);
  task.charge(kSwCacheHitNs);
  if (auto hit = ns.cache.lookup(key)) {
    ++counters.sw_cache_hits;
    cont(task, *hit);
    return;
  }
  ++counters.sw_cache_misses;

  auto& pending = ns.pending_resolves[key];
  pending.push_back(std::move(cont));
  if (pending.size() > 1) return;  // a request is already in flight

  // Request/response to the home directory.
  task.charge(ep(node).post_cost());
  ep(node).send_to_cpu(task.now(), home, kCtrlBytes,
                       [this, block_base, node](sim::TaskCtx& t2) {
                         handle_resolve_request(t2, block_base, node);
                       });
}

void AgasSw::handle_resolve_request(sim::TaskCtx& task, Gva block_base,
                                    int requester) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  task.charge(kDirLookupNs);
  ++fabric_->counters().directory_lookups;

  DirEntry& e = dir_.at(block_base);
  if (moves_.moving(key)) {
    moves_.park(key, [this, block_base, requester](sim::TaskCtx& t2) {
      handle_resolve_request(t2, block_base, requester);
    });
    return;
  }
  e.add_sharer(requester);
  const net::TlbEntry entry{e.owner, e.lva, e.generation};

  task.charge(ep(home).post_cost());
  // The handler finds the requester as the node it runs on, which keeps
  // the hop's closure within its inline buffer.
  ep(home).send_to_cpu(
      task.now(), requester, kReplyBytes, [this, key, entry](sim::TaskCtx& t2) {
        t2.charge(kSwCacheInsertNs);
        NodeState& ns = st(t2.cpu().node());
        ns.cache.insert(key, entry);
        auto conts = std::move(ns.pending_resolves[key]);
        ns.pending_resolves.erase(key);
        for (auto& c : conts) c(t2, entry);
      });
}

// ---------------------------------------------------------------------------
// Fencing bookkeeping: a node must be able to prove "no RMA of mine is
// still in flight against this block" before acking an invalidation.
// ---------------------------------------------------------------------------

template <typename... Args>
std::function<void(sim::Time, Args...)> AgasSw::track_op(
    int node, std::uint64_t key, std::function<void(sim::Time, Args...)> done) {
  ++st(node).outstanding[key];
  if (observer_ != nullptr) observer_->on_remote_op_begin(node, key);
  return [this, node, key, done = std::move(done)](sim::Time t, Args... args) {
    end_op(node, key, t);
    if (done) done(t, std::move(args)...);
  };
}

void AgasSw::end_op(int node, std::uint64_t key, sim::Time t) {
  if (observer_ != nullptr) observer_->on_remote_op_end(node, key);
  NodeState& ns = st(node);
  const auto it = ns.outstanding.find(key);
  NVGAS_CHECK(it != ns.outstanding.end() && it->second > 0);
  if (--it->second == 0) {
    ns.outstanding.erase(it);
    const auto wit = ns.fence_waiters.find(key);
    if (wit != ns.fence_waiters.end()) {
      auto waiters = std::move(wit->second);
      ns.fence_waiters.erase(wit);
      for (auto& w : waiters) w(t);
    }
  }
}

// ---------------------------------------------------------------------------
// Data path.
// ---------------------------------------------------------------------------

void AgasSw::do_memput(sim::TaskCtx& task, int node, Gva dst,
                       std::vector<std::byte> data, net::OnDone done,
                       net::OnDone remote_notify) {
  const std::uint64_t key = dst.block_key();
  const std::uint32_t off = dst.offset();
  with_translation(
      task, node, dst.block_base(),
      [this, node, key, off, data = std::move(data), done = std::move(done),
       remote_notify = std::move(remote_notify)](sim::TaskCtx& t,
                                                 const net::TlbEntry& e) mutable {
        if (e.owner == node) {
          local_put(t, node, e.base + off, data, done);
          if (remote_notify) remote_notify(t.now());
          return;
        }
        net::OnDone tracked = track_op(node, key, std::move(done));
        t.charge(ep(node).post_cost());
        ep(node).put(t.now(), e.owner, e.base + off, std::move(data),
                     std::move(tracked), std::move(remote_notify));
      });
}

void AgasSw::do_memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                       net::OnData done) {
  const std::uint64_t key = src.block_key();
  const std::uint32_t off = src.offset();
  with_translation(
      task, node, src.block_base(),
      [this, node, key, off, len,
       done = std::move(done)](sim::TaskCtx& t, const net::TlbEntry& e) mutable {
        if (e.owner == node) {
          local_get(t, node, e.base + off, len, done);
          return;
        }
        net::OnData tracked = track_op(node, key, std::move(done));
        t.charge(ep(node).post_cost());
        ep(node).get(t.now(), e.owner, e.base + off, len, std::move(tracked));
      });
}

void AgasSw::do_fetch_add(sim::TaskCtx& task, int node, Gva addr,
                          std::uint64_t operand, net::OnU64 done) {
  const std::uint64_t key = addr.block_key();
  const std::uint32_t off = addr.offset();
  with_translation(
      task, node, addr.block_base(),
      [this, node, key, off, operand,
       done = std::move(done)](sim::TaskCtx& t, const net::TlbEntry& e) mutable {
        if (e.owner == node) {
          local_fadd(t, node, e.base + off, operand, done);
          return;
        }
        net::OnU64 tracked = track_op(node, key, std::move(done));
        t.charge(ep(node).post_cost());
        ep(node).fetch_add(t.now(), e.owner, e.base + off, operand,
                           std::move(tracked));
      });
}

void AgasSw::do_resolve(sim::TaskCtx& task, int node, Gva addr, OnOwner done) {
  with_translation(task, node, addr.block_base(),
                   [done = std::move(done)](sim::TaskCtx& t, const net::TlbEntry& e) {
                     done(t.now(), e.owner);
                   });
}

// ---------------------------------------------------------------------------
// Migration.
// ---------------------------------------------------------------------------

void AgasSw::migrate(sim::TaskCtx& task, int node, Gva block, int dst,
                     net::OnDone done) {
  NVGAS_CHECK(dst >= 0 && dst < ranks());
  const Gva base = block.block_base();
  const int home = home_of_key(base);
  if (node == home) {
    start_migration(task, base, {dst, node, std::move(done)});
    return;
  }
  task.charge(ep(node).post_cost());
  ep(node).send_to_cpu(task.now(), home, kCtrlBytes,
                       [this, base, dst, node,
                        done = std::move(done)](sim::TaskCtx& t2) mutable {
                         start_migration(t2, base, {dst, node, std::move(done)});
                       });
}

void AgasSw::start_migration(sim::TaskCtx& task, Gva block_base,
                             MoveRequest req) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  NodeState& hs = st(home);

  task.charge(kDirLookupNs);
  const DirEntry& e = dir_.at(block_base);
  if (moves_.moving(key)) {
    moves_.queue(key, std::move(req));
    return;
  }
  if (e.owner == req.dst) {
    // Already there: acknowledge immediately, then keep draining any
    // migrations that queued behind this one.
    notify_initiator(task, home, std::move(req));
    if (auto next = moves_.next(key)) {
      start_migration(task, block_base, std::move(*next));
    }
    return;
  }

  task.charge(kDirUpdateNs);
  auto& mig = moves_.begin(key, std::move(req));
  if (observer_ != nullptr) observer_->on_migration_start(key);

  // Invalidate every sharer; each acks only once its in-flight RMAs have
  // drained. The home fences its own outstanding RMAs the same way.
  auto sharers = e.sharers;  // copy: the entry mutates on replay
  if (config_.fault_sw_skip_one_sharer_inv && !sharers.empty()) {
    // Test-only seeded fault (mcheck self-validation): "forget" the
    // highest-ranked sharer — send it no INV and do not await its ACK —
    // so its cached translation survives the move stale.
    sharers.pop_back();
  }
  mig.pending_acks = static_cast<std::uint32_t>(sharers.size());
  const bool home_fence = hs.outstanding.count(key) != 0;
  if (home_fence) ++mig.pending_acks;

  for (int s : sharers) {
    task.charge(ep(home).post_cost());
    ep(home).send_to_cpu(
        task.now(), s, kCtrlBytes, [this, key, block_base, s, home](sim::TaskCtx& t2) {
          t2.charge(kInvalidateNs);
          NodeState& ns = st(s);
          if (ns.cache.erase(key)) {
            ++fabric_->counters().sw_cache_invalidations;
          }
          auto send_ack = [this, block_base, s, home](sim::Time t) {
            ep(s).send_to_cpu(t, home, kCtrlBytes,
                              [this, block_base](sim::TaskCtx& t3) {
                                migration_acked(t3, block_base);
                              });
          };
          if (ns.outstanding.count(key) != 0) {
            ns.fence_waiters[key].push_back(std::move(send_ack));
          } else {
            t2.charge(ep(s).post_cost());
            send_ack(t2.now());
          }
        });
  }
  if (home_fence) {
    hs.fence_waiters[key].push_back([this, block_base, home](sim::Time t) {
      fabric_->cpu(home).submit_at(t, [this, block_base](sim::TaskCtx& t2) {
        migration_acked(t2, block_base);
      });
    });
  }
  if (mig.pending_acks == 0) migration_alloc(task, block_base);
}

void AgasSw::migration_acked(sim::TaskCtx& task, Gva block_base) {
  auto& mig = moves_.move(block_base.block_key());
  NVGAS_CHECK(mig.pending_acks > 0);
  if (--mig.pending_acks == 0) migration_alloc(task, block_base);
}

void AgasSw::migration_alloc(sim::TaskCtx& task, Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  // Reached exactly once per migration, when the invalidation/drain
  // fence has fully completed (all sharer ACKs in, home drained).
  if (observer_ != nullptr) observer_->on_fence_complete(key);
  const std::uint32_t bsize = heap_->meta_of(block_base).block_size;
  const int dst = moves_.move(key).dst;

  task.charge(ep(home).post_cost());
  ep(home).send_to_cpu(
      task.now(), dst, kCtrlBytes,
      [this, block_base, dst, home, bsize](sim::TaskCtx& t2) {
        t2.charge(kAllocBlockNs);
        const sim::Lva lva = heap_->store(dst).allocate(bsize);
        t2.charge(ep(dst).post_cost());
        ep(dst).send_to_cpu(t2.now(), home, kReplyBytes,
                            [this, block_base, lva](sim::TaskCtx& t3) {
                              moves_.move(block_base.block_key()).dst_lva = lva;
                              migration_transfer(t3, block_base);
                            });
      });
}

void AgasSw::migration_transfer(sim::TaskCtx& task, Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  const auto& mig = moves_.move(key);
  const DirEntry& e = dir_.at(block_base);
  const std::uint32_t bsize = heap_->meta_of(block_base).block_size;
  const sim::Lva old_lva = e.lva;
  const sim::Lva dst_lva = mig.dst_lva;
  const int dst = mig.dst;

  task.charge(ep(home).post_cost());
  // As in the resolve reply, the handler finds the owner as the node it
  // runs on, which keeps the hop's closure within its inline buffer.
  ep(home).send_to_cpu(
      task.now(), e.owner, kCtrlBytes,
      [this, block_base, old_lva, dst_lva, dst, bsize](sim::TaskCtx& t2) {
        const int owner = t2.cpu().node();
        t2.charge(fabric_->params().copy_time(bsize));
        std::vector<std::byte> data = fabric_->mem(owner).read_vec(old_lva, bsize);
        t2.charge(ep(owner).post_cost());
        ep(owner).put(t2.now(), dst, dst_lva, std::move(data),
                      [this, block_base, owner, old_lva, bsize](sim::Time t3) {
                        heap_->store(owner).release(old_lva, bsize);
                        ep(owner).send_to_cpu(
                            t3, home_of_key(block_base), kCtrlBytes,
                            [this, block_base](sim::TaskCtx& t4) {
                              finish_migration(t4, block_base);
                            });
                      });
      });
}

void AgasSw::finish_migration(sim::TaskCtx& task, Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  auto [mig, parked] = moves_.commit(key);

  task.charge(kDirUpdateNs);
  DirEntry& e = dir_.at(block_base);
  e.owner = mig.dst;
  e.lva = mig.dst_lva;
  ++e.generation;
  e.sharers.clear();
  if (observer_ != nullptr) {
    observer_->on_migration_commit(key, e.owner, e.generation);
  }

  auto& counters = fabric_->counters();
  ++counters.migrations;
  counters.migration_bytes += heap_->meta_of(block_base).block_size;

  notify_initiator(task, home, std::move(mig));

  // Replay work parked while the block was moving.
  for (auto& w : parked) {
    fabric_->cpu(home).submit_at(
        task.now(), [w = std::move(w)](sim::TaskCtx& t2) mutable { w(t2); });
  }

  // Chain any queued migration for the same block.
  if (auto next = moves_.next(key)) {
    start_migration(task, block_base, std::move(*next));
  }
}

void AgasSw::notify_initiator(sim::TaskCtx& task, int home, MoveRequest req) {
  if (req.initiator == home) {
    if (req.done) req.done(task.now());
    return;
  }
  task.charge(ep(home).post_cost());
  ep(home).raw_send(task.now(), req.initiator, kCtrlBytes,
                    [done = std::move(req.done)](sim::Time t) {
                      if (done) done(t);
                    });
}

std::pair<int, sim::Lva> AgasSw::drop_block_state(Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const DirEntry& e = dir_.at(block_base);
  moves_.check_not_moving(key);
  // Collective free: every rank drops its cached translation. The
  // allocation's directory entries go together, in free_alloc.
  for (auto& ns : nodes_) {
    (void)ns.cache.erase(key);
    NVGAS_CHECK_MSG(ns.outstanding.count(key) == 0,
                    "free_alloc with in-flight RMAs");
  }
  return {e.owner, e.lva};
}

std::string AgasSw::audit_translation() const {
  for (int n = 0; n < static_cast<int>(nodes_.size()); ++n) {
    const NodeState& ns = nodes_[static_cast<std::size_t>(n)];
    for (const auto& [key, cached] : ns.cache.entries()) {
      const DirEntry* found = dir_.find(Gva(key));
      if (found == nullptr) {
        return util::format("node %d caches a translation for block %llx "
                            "with no directory entry at home %d",
                            n, static_cast<unsigned long long>(key),
                            Gva(key).home(fabric_->nodes()));
      }
      const DirEntry& e = *found;
      if (cached.generation != e.generation || cached.owner != e.owner ||
          cached.base != e.lva) {
        return util::format(
            "node %d holds a stale translation for block %llx: cached "
            "{owner %d, lva %llx, gen %u} vs directory {owner %d, lva "
            "%llx, gen %u}",
            n, static_cast<unsigned long long>(key), cached.owner,
            static_cast<unsigned long long>(cached.base), cached.generation,
            e.owner, static_cast<unsigned long long>(e.lva), e.generation);
      }
    }
  }
  return {};
}

std::string AgasSw::audit_quiescent() const {
  for (int n = 0; n < static_cast<int>(nodes_.size()); ++n) {
    const NodeState& ns = nodes_[static_cast<std::size_t>(n)];
    if (!ns.pending_resolves.empty()) {
      return util::format("node %d has unanswered resolve requests", n);
    }
    if (!ns.outstanding.empty()) {
      return util::format("node %d has unfinished in-flight RMAs", n);
    }
    if (!ns.fence_waiters.empty()) {
      return util::format("node %d has fence waiters never released", n);
    }
  }
  return moves_.audit_quiescent();
}

std::pair<int, sim::Lva> AgasSw::owner_of(Gva block) const {
  const DirEntry& e = dir_.at(block.block_base());
  return {e.owner, e.lva};
}

}  // namespace nvgas::gas
