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
               GlobalHeap& heap, GasCosts costs)
    : GasBase(fabric, endpoints, heap, costs) {
  // Host array of per-node SW translation caches; each cache is bounded by
  // sw_cache_capacity, so per-simulated-node state is O(1).
  // protolint:allow(P4: host array of capacity-bounded per-node SW caches)
  nodes_.reserve(static_cast<std::size_t>(fabric.nodes()));
  for (int n = 0; n < fabric.nodes(); ++n) {
    nodes_.emplace_back(costs_.sw_cache_capacity);
  }
}

Gva AgasSw::alloc(sim::TaskCtx& task, int node, Dist dist,
                  std::uint32_t nblocks, std::uint32_t block_size) {
  const Gva base = GasBase::alloc(task, node, dist, nblocks, block_size);
  // Install the authoritative directory entries at each block's home as
  // part of the allocation collective.
  const AllocMeta& m = heap_->meta_of(base);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const Gva block = Gva::make(m.dist, m.creator, m.id, b, 0);
    const int home = home_of_key(block);
    st(home).dir.insert(block.block_key(), home, heap_->initial_lva(block));
  }
  return base;
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
    task.charge(costs_.dir_lookup_ns);
    ++counters.directory_lookups;
    DirEntry& e = st(home).dir.at(key);
    if (e.moving) {
      st(home).deferred[key].push_back(
          [this, node, block_base, cont = std::move(cont)](sim::TaskCtx& t2) mutable {
            with_translation(t2, node, block_base, std::move(cont));
          });
      return;
    }
    cont(task, CacheEntry{e.owner, e.lva, e.generation});
    return;
  }

  NodeState& ns = st(node);
  task.charge(costs_.sw_cache_hit_ns);
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
  ep(node).raw_send(task.now(), home, kCtrlBytes,
                    [this, block_base, node](sim::Time arrived) {
                      fabric_->cpu(home_of_key(block_base))
                          .submit_at(arrived, [this, block_base, node](sim::TaskCtx& t2) {
                            t2.charge(fabric_->params().cpu_recv_overhead_ns);
                            handle_resolve_request(t2, block_base, node);
                          });
                    });
}

void AgasSw::handle_resolve_request(sim::TaskCtx& task, Gva block_base,
                                    int requester) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  task.charge(costs_.dir_lookup_ns);
  ++fabric_->counters().directory_lookups;

  DirEntry& e = st(home).dir.at(key);
  if (e.moving) {
    st(home).deferred[key].push_back(
        [this, block_base, requester](sim::TaskCtx& t2) {
          handle_resolve_request(t2, block_base, requester);
        });
    return;
  }
  e.sharers.insert(requester);
  const CacheEntry entry{e.owner, e.lva, e.generation};

  task.charge(ep(home).post_cost());
  ep(home).raw_send(
      task.now(), requester, kReplyBytes,
      [this, key, requester, entry](sim::Time arrived) {
        fabric_->cpu(requester).submit_at(
            arrived, [this, key, requester, entry](sim::TaskCtx& t2) {
              t2.charge(fabric_->params().cpu_recv_overhead_ns +
                        costs_.sw_cache_insert_ns);
              NodeState& ns = st(requester);
              ns.cache.insert(key, entry);
              auto conts = std::move(ns.pending_resolves[key]);
              ns.pending_resolves.erase(key);
              for (auto& c : conts) c(t2, entry);
            });
      });
}

// ---------------------------------------------------------------------------
// Fencing bookkeeping: a node must be able to prove "no RMA of mine is
// still in flight against this block" before acking an invalidation.
// ---------------------------------------------------------------------------

void AgasSw::begin_op(int node, std::uint64_t key) {
  ++st(node).outstanding[key];
  if (observer_ != nullptr) observer_->on_remote_op_begin(node, key);
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

void AgasSw::memput(sim::TaskCtx& task, int node, Gva dst,
                    std::vector<std::byte> data, net::OnDone done) {
  memput_notify(task, node, dst, std::move(data), std::move(done), nullptr);
}

void AgasSw::memput_notify(sim::TaskCtx& task, int node, Gva dst,
                           std::vector<std::byte> data, net::OnDone done,
                           net::OnDone remote_notify) {
  heap_->check_extent(dst, data.size());
  ++fabric_->counters().gas_memputs;
  note_access(node, dst);
  remote_notify = instrument_signal(std::move(remote_notify));
  const std::uint64_t key = dst.block_key();
  const std::uint32_t off = dst.offset();
  with_translation(
      task, node, dst.block_base(),
      [this, node, key, off, data = std::move(data), done = std::move(done),
       remote_notify = std::move(remote_notify)](sim::TaskCtx& t,
                                                 const CacheEntry& e) mutable {
        if (e.owner == node) {
          local_put(t, node, e.lva + off, data, done);
          if (remote_notify) remote_notify(t.now());
          return;
        }
        begin_op(node, key);
        t.charge(ep(node).post_cost());
        ep(node).put(t.now(), e.owner, e.lva + off, std::move(data),
                     [this, node, key, done = std::move(done)](sim::Time tt) {
                       end_op(node, key, tt);
                       if (done) done(tt);
                     },
                     std::move(remote_notify));
      });
}

void AgasSw::memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                    net::OnData done) {
  heap_->check_extent(src, len);
  ++fabric_->counters().gas_memgets;
  note_access(node, src);
  const std::uint64_t key = src.block_key();
  const std::uint32_t off = src.offset();
  with_translation(
      task, node, src.block_base(),
      [this, node, key, off, len,
       done = std::move(done)](sim::TaskCtx& t, const CacheEntry& e) mutable {
        if (e.owner == node) {
          local_get(t, node, e.lva + off, len, done);
          return;
        }
        begin_op(node, key);
        t.charge(ep(node).post_cost());
        ep(node).get(t.now(), e.owner, e.lva + off, len,
                     [this, node, key, done = std::move(done)](
                         sim::Time tt, std::vector<std::byte> bytes) {
                       end_op(node, key, tt);
                       if (done) done(tt, std::move(bytes));
                     });
      });
}

void AgasSw::fetch_add(sim::TaskCtx& task, int node, Gva addr,
                       std::uint64_t operand, net::OnU64 done) {
  heap_->check_extent(addr, sizeof(std::uint64_t));
  ++fabric_->counters().gas_atomics;
  note_access(node, addr);
  const std::uint64_t key = addr.block_key();
  const std::uint32_t off = addr.offset();
  with_translation(
      task, node, addr.block_base(),
      [this, node, key, off, operand,
       done = std::move(done)](sim::TaskCtx& t, const CacheEntry& e) mutable {
        if (e.owner == node) {
          local_fadd(t, node, e.lva + off, operand, done);
          return;
        }
        begin_op(node, key);
        t.charge(ep(node).post_cost());
        ep(node).fetch_add(t.now(), e.owner, e.lva + off, operand,
                           [this, node, key, done = std::move(done)](
                               sim::Time tt, std::uint64_t old) {
                             end_op(node, key, tt);
                             if (done) done(tt, old);
                           });
      });
}

void AgasSw::resolve(sim::TaskCtx& task, int node, Gva addr, OnOwner done) {
  note_access(node, addr);
  with_translation(task, node, addr.block_base(),
                   [done = std::move(done)](sim::TaskCtx& t, const CacheEntry& e) {
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
    start_migration(task, base, dst, node, std::move(done));
    return;
  }
  task.charge(ep(node).post_cost());
  ep(node).raw_send(task.now(), home, kCtrlBytes,
                    [this, base, dst, node, home,
                     done = std::move(done)](sim::Time arrived) mutable {
                      fabric_->cpu(home).submit_at(
                          arrived, [this, base, dst, node,
                                    done = std::move(done)](sim::TaskCtx& t2) mutable {
                            t2.charge(fabric_->params().cpu_recv_overhead_ns);
                            start_migration(t2, base, dst, node, std::move(done));
                          });
                    });
}

void AgasSw::start_migration(sim::TaskCtx& task, Gva block_base, int dst,
                             int initiator, net::OnDone done) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  NodeState& hs = st(home);

  task.charge(costs_.dir_lookup_ns);
  DirEntry& e = hs.dir.at(key);
  if (e.moving) {
    hs.queued_migrations[key].push_back({dst, initiator, std::move(done)});
    return;
  }
  if (e.owner == dst) {
    // Already there: acknowledge immediately, then keep draining any
    // migrations that queued behind this one.
    if (initiator == home) {
      if (done) done(task.now());
    } else {
      task.charge(ep(home).post_cost());
      ep(home).raw_send(task.now(), initiator, kCtrlBytes,
                        [done = std::move(done)](sim::Time t) {
                          if (done) done(t);
                        });
    }
    chain_queued_migration(task, block_base);
    return;
  }

  task.charge(costs_.dir_update_ns);
  e.moving = true;
  if (observer_ != nullptr) observer_->on_migration_start(key);
  Migration mig;
  mig.dst = dst;
  mig.initiator = initiator;
  mig.done = std::move(done);

  // Invalidate every sharer; each acks only once its in-flight RMAs have
  // drained. The home fences its own outstanding RMAs the same way.
  auto sharers = e.sharers;  // copy: set mutates on replay
  if (costs_.fault_sw_skip_one_sharer_inv && !sharers.empty()) {
    // Test-only seeded fault (mcheck self-validation): "forget" the
    // highest-ranked sharer — send it no INV and do not await its ACK —
    // so its cached translation survives the move stale.
    sharers.erase(std::prev(sharers.end()));
  }
  mig.pending_acks = static_cast<std::uint32_t>(sharers.size());
  const bool home_fence = st(home).outstanding.count(key) != 0;
  if (home_fence) ++mig.pending_acks;
  hs.migrations[key] = std::move(mig);

  for (int s : sharers) {
    task.charge(ep(home).post_cost());
    ep(home).raw_send(
        task.now(), s, kCtrlBytes, [this, key, block_base, s, home](sim::Time arrived) {
          fabric_->cpu(s).submit_at(arrived, [this, key, block_base, s,
                                              home](sim::TaskCtx& t2) {
            t2.charge(fabric_->params().cpu_recv_overhead_ns +
                      costs_.invalidate_ns);
            NodeState& ns = st(s);
            if (ns.cache.invalidate(key)) {
              ++fabric_->counters().sw_cache_invalidations;
            }
            auto send_ack = [this, block_base, s, home](sim::Time t) {
              ep(s).raw_send(t, home, kCtrlBytes,
                             [this, block_base, home](sim::Time arrived2) {
                               fabric_->cpu(home).submit_at(
                                   arrived2, [this, block_base](sim::TaskCtx& t3) {
                                     t3.charge(
                                         fabric_->params().cpu_recv_overhead_ns);
                                     migration_acked(t3, block_base);
                                   });
                             });
            };
            if (ns.outstanding.count(key) != 0) {
              ns.fence_waiters[key].push_back(std::move(send_ack));
            } else {
              t2.charge(ep(s).post_cost());
              send_ack(t2.now());
            }
          });
        });
  }
  if (home_fence) {
    hs.fence_waiters[key].push_back([this, block_base, home](sim::Time t) {
      fabric_->cpu(home).submit_at(t, [this, block_base](sim::TaskCtx& t2) {
        migration_acked(t2, block_base);
      });
    });
  }
  if (hs.migrations[key].pending_acks == 0) {
    migration_alloc(task, block_base);
  }
}

void AgasSw::migration_acked(sim::TaskCtx& task, Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  Migration& mig = st(home_of_key(block_base)).migrations.at(key);
  NVGAS_CHECK(mig.pending_acks > 0);
  if (--mig.pending_acks == 0) migration_alloc(task, block_base);
}

void AgasSw::migration_alloc(sim::TaskCtx& task, Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  // Reached exactly once per migration, when the invalidation/drain
  // fence has fully completed (all sharer ACKs in, home drained).
  if (observer_ != nullptr) observer_->on_fence_complete(key);
  Migration& mig = st(home).migrations.at(key);
  const std::uint32_t bsize = heap_->meta_of(block_base).block_size;
  const int dst = mig.dst;

  task.charge(ep(home).post_cost());
  ep(home).raw_send(
      task.now(), dst, kCtrlBytes, [this, key, block_base, dst, home,
                                    bsize](sim::Time arrived) {
        fabric_->cpu(dst).submit_at(arrived, [this, key, block_base, dst, home,
                                              bsize](sim::TaskCtx& t2) {
          t2.charge(fabric_->params().cpu_recv_overhead_ns +
                    costs_.alloc_block_ns);
          const sim::Lva lva = heap_->store(dst).allocate(bsize);
          t2.charge(ep(dst).post_cost());
          ep(dst).raw_send(t2.now(), home, kReplyBytes,
                           [this, key, block_base, lva, home](sim::Time arrived2) {
                             fabric_->cpu(home).submit_at(
                                 arrived2,
                                 [this, key, block_base, lva](sim::TaskCtx& t3) {
                                   t3.charge(
                                       fabric_->params().cpu_recv_overhead_ns);
                                   st(home_of_key(block_base))
                                       .migrations.at(key)
                                       .dst_lva = lva;
                                   migration_transfer(t3, block_base);
                                 });
                           });
        });
      });
}

void AgasSw::migration_transfer(sim::TaskCtx& task, Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  Migration& mig = st(home).migrations.at(key);
  DirEntry& e = st(home).dir.at(key);
  const std::uint32_t bsize = heap_->meta_of(block_base).block_size;
  const int owner = e.owner;
  const sim::Lva old_lva = e.lva;
  const sim::Lva dst_lva = mig.dst_lva;
  const int dst = mig.dst;

  task.charge(ep(home).post_cost());
  ep(home).raw_send(
      task.now(), owner, kCtrlBytes,
      [this, key, block_base, owner, dst, old_lva, dst_lva, bsize,
       home](sim::Time arrived) {
        fabric_->cpu(owner).submit_at(arrived, [this, key, block_base, owner,
                                                dst, old_lva, dst_lva, bsize,
                                                home](sim::TaskCtx& t2) {
          t2.charge(fabric_->params().cpu_recv_overhead_ns);
          t2.charge(fabric_->params().copy_time(bsize));
          std::vector<std::byte> data = fabric_->mem(owner).read_vec(old_lva, bsize);
          t2.charge(ep(owner).post_cost());
          ep(owner).put(
              t2.now(), dst, dst_lva, std::move(data),
              [this, key, block_base, owner, old_lva, bsize, home](sim::Time t3) {
                heap_->store(owner).release(old_lva, bsize);
                ep(owner).raw_send(
                    t3, home, kCtrlBytes, [this, key, block_base](sim::Time arrived2) {
                      fabric_->cpu(home_of_key(block_base))
                          .submit_at(arrived2, [this, block_base](sim::TaskCtx& t4) {
                            t4.charge(fabric_->params().cpu_recv_overhead_ns);
                            finish_migration(t4, block_base);
                          });
                      (void)key;
                    });
              });
        });
      });
}

void AgasSw::finish_migration(sim::TaskCtx& task, Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  NodeState& hs = st(home);
  Migration mig = std::move(hs.migrations.at(key));
  hs.migrations.erase(key);

  task.charge(costs_.dir_update_ns);
  DirEntry& e = hs.dir.at(key);
  e.owner = mig.dst;
  e.lva = mig.dst_lva;
  ++e.generation;
  e.moving = false;
  e.sharers.clear();
  if (observer_ != nullptr) {
    observer_->on_migration_commit(key, e.owner, e.generation);
  }

  auto& counters = fabric_->counters();
  ++counters.migrations;
  counters.migration_bytes += heap_->meta_of(block_base).block_size;

  // Notify the initiator.
  if (mig.initiator == home) {
    if (mig.done) mig.done(task.now());
  } else {
    task.charge(ep(home).post_cost());
    ep(home).raw_send(task.now(), mig.initiator, kCtrlBytes,
                      [done = std::move(mig.done)](sim::Time t) {
                        if (done) done(t);
                      });
  }

  // Replay work that queued while the block was moving.
  const auto dit = hs.deferred.find(key);
  if (dit != hs.deferred.end()) {
    auto work = std::move(dit->second);
    hs.deferred.erase(dit);
    for (auto& w : work) {
      fabric_->cpu(home).submit_at(
          task.now(), [w = std::move(w)](sim::TaskCtx& t2) mutable { w(t2); });
    }
  }

  // Chain any queued migration for the same block.
  chain_queued_migration(task, block_base);
}

void AgasSw::chain_queued_migration(sim::TaskCtx& task, Gva block_base) {
  NodeState& hs = st(home_of_key(block_base));
  const auto qit = hs.queued_migrations.find(block_base.block_key());
  if (qit == hs.queued_migrations.end() || qit->second.empty()) return;
  PendingMigration next = std::move(qit->second.front());
  qit->second.erase(qit->second.begin());
  if (qit->second.empty()) hs.queued_migrations.erase(qit);
  start_migration(task, block_base, next.dst, next.initiator,
                  std::move(next.done));
}

std::pair<int, sim::Lva> AgasSw::drop_block_state(Gva block_base) {
  const std::uint64_t key = block_base.block_key();
  const int home = home_of_key(block_base);
  NodeState& hs = st(home);
  DirEntry& e = hs.dir.at(key);
  NVGAS_CHECK_MSG(!e.moving, "free_alloc while a block is migrating");
  NVGAS_CHECK_MSG(queued_migrations_empty(key), "free_alloc with queued migrations");
  const std::pair<int, sim::Lva> place{e.owner, e.lva};
  // Collective free: every rank drops its cached translation.
  for (auto& ns : nodes_) {
    (void)ns.cache.invalidate(key);
    NVGAS_CHECK_MSG(ns.outstanding.count(key) == 0,
                    "free_alloc with in-flight RMAs");
  }
  hs.dir.erase(key);
  return place;
}

bool AgasSw::queued_migrations_empty(std::uint64_t key) const {
  for (const auto& ns : nodes_) {
    const auto it = ns.queued_migrations.find(key);
    if (it != ns.queued_migrations.end() && !it->second.empty()) return false;
  }
  return true;
}

std::string AgasSw::audit_translation() const {
  for (int n = 0; n < static_cast<int>(nodes_.size()); ++n) {
    const NodeState& ns = nodes_[static_cast<std::size_t>(n)];
    for (const auto& [key, cached] : ns.cache.entries()) {
      const int home = Gva(key).home(fabric_->nodes());
      const Directory& dir = nodes_[static_cast<std::size_t>(home)].dir;
      if (!dir.contains(key)) {
        return util::format("node %d caches a translation for block %llx "
                            "with no directory entry at home %d",
                            n, static_cast<unsigned long long>(key), home);
      }
      const DirEntry& e = dir.at(key);
      if (cached.generation != e.generation || cached.owner != e.owner ||
          cached.lva != e.lva) {
        return util::format(
            "node %d holds a stale translation for block %llx: cached "
            "{owner %d, lva %llx, gen %u} vs directory {owner %d, lva "
            "%llx, gen %u}",
            n, static_cast<unsigned long long>(key), cached.owner,
            static_cast<unsigned long long>(cached.lva), cached.generation,
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
    if (!ns.deferred.empty()) {
      return util::format("home %d has deferred work never replayed", n);
    }
    if (!ns.migrations.empty()) {
      return util::format("home %d has migrations never committed", n);
    }
    if (!ns.queued_migrations.empty()) {
      return util::format("home %d has queued migrations never started", n);
    }
  }
  return {};
}

std::pair<int, sim::Lva> AgasSw::owner_of(Gva block) const {
  const Gva base = block.block_base();
  const int home = base.home(fabric_->nodes());
  const DirEntry& e =
      nodes_.at(static_cast<std::size_t>(home)).dir.at(base.block_key());
  return {e.owner, e.lva};
}

}  // namespace nvgas::gas
