// Software-managed AGAS baseline (how HPX-5 shipped before the
// network-managed design).
//
// Translation state:
//   * each block's HOME rank holds the authoritative directory entry
//     (owner, lva, generation, sharers) — every directory access is a
//     CPU task at the home — and sequences the block's moves
//     (gas::MoveSequencer, shared with agas-net);
//   * every other rank keeps a bounded translation cache, filled by
//     request/response parcels to the home: the same exact-LRU table a
//     NIC holds under agas-net (net::NicTlb, unpinned entries only), but
//     looked up and filled by CPU tasks.
//
// Invariant: a cached translation is never stale. The home enforces it by
// invalidating all sharers (and waiting for their in-flight RMAs to
// drain — the "fence") before a block moves. That synchronous
// invalidation storm is precisely the cost the network-managed design
// eliminates.
//
// Migration protocol (home-coordinated, 6 steps):
//   1. initiator -> home: MIG_REQ(block, dst)
//   2. home: mark moving; INV to every sharer; sharers fence + ACK
//   3. home -> dst: ALLOC; dst allocates backing store, replies lva'
//   4. home -> owner: XFER(dst, lva'); owner RMA-puts the block data
//   5. owner: release old storage, -> home: MOVED
//   6. home: commit {owner=dst, lva', gen+1}, clear sharers, replay
//      parked ops, notify initiator.
#pragma once

#include <vector>

#include "gas/directory.hpp"
#include "gas/gas_api.hpp"
#include "gas/move_sequencer.hpp"
#include "net/nic_tlb.hpp"
#include "util/inline_function.hpp"

namespace nvgas::gas {

class AgasSw final : public GasBase {
 public:
  AgasSw(sim::Fabric& fabric, net::EndpointGroup& endpoints, GlobalHeap& heap,
         GasCosts config);

  [[nodiscard]] GasMode mode() const override { return GasMode::kAgasSw; }
  [[nodiscard]] bool supports_migration() const override { return true; }

  Gva alloc(sim::TaskCtx& task, int node, Dist dist, std::uint32_t nblocks,
            std::uint32_t block_size) override;
  void free_alloc(sim::TaskCtx& task, int node, Gva base) override;

  void migrate(sim::TaskCtx& task, int node, Gva block, int dst,
               net::OnDone done) override;

  [[nodiscard]] std::pair<int, sim::Lva> owner_of(Gva block) const override;

  // mcheck invariant audits (see docs/MODEL_CHECKING.md). This manager's
  // contract is "a cached translation is never stale", so every cache
  // entry anywhere must match its home directory entry exactly.
  [[nodiscard]] std::string audit_translation() const override;
  [[nodiscard]] std::string audit_quiescent() const override;

  // Introspection for tests/benches.
  [[nodiscard]] const net::NicTlb& cache(int node) const {
    return nodes_.at(static_cast<std::size_t>(node)).cache;
  }
  // Every home's entries; a block's home is arithmetic on its GVA.
  [[nodiscard]] const Directory& directory() const { return dir_; }

 protected:
  // Resolve op `id`'s block from its node, then run it. Handles
  // home-local lookups, cache hits, misses (request/response), and
  // queuing while the block is moving.
  void start(sim::TaskCtx& task, std::uint32_t id) override;
  std::pair<int, sim::Lva> drop_block_state(Gva block_base) override;

 private:
  // A resolve request in flight from a node, and the first and last op
  // waiting on its reply; the ops between chain through OpRecord::next,
  // in issue order.
  struct Resolving {
    std::uint64_t key;
    std::uint32_t first;
    std::uint32_t last;
  };
  // A continuation waiting for a node's RMAs on a block to drain (an
  // invalidation's fence). The 48-byte inline buffer holds it without a
  // heap allocation.
  using FenceWaiter = util::InlineFunction<void(sim::Time), 48>;
  // A block a node has RMAs in flight against, how many, and the fence
  // waiters to run, in push order, when the last one finishes.
  struct InFlight {
    std::uint64_t key;
    std::uint32_t rmas;
    std::vector<FenceWaiter> waiters;
  };

  struct NodeState {
    explicit NodeState(std::size_t cache_capacity) : cache(cache_capacity) {}
    // Source side: unpinned entries only.
    net::NicTlb cache;
    // A node has at most one entry per block it is waiting on, a few at
    // a time, so both are scanned linearly.
    std::vector<Resolving> resolving;
    std::vector<InFlight> in_flight;
  };

  [[nodiscard]] NodeState& st(int node) {
    return nodes_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] int home_of_key(Gva block_base) const {
    return block_base.home(fabric_->nodes());
  }

  // Carry out op `id` against the valid translation `e`.
  void run(sim::TaskCtx& task, std::uint32_t id, const net::TlbEntry& e);

  // Home-side processing (CPU tasks at the home) of the resolve request
  // that op `id`, the first op waiting on it, sent from its node: the
  // home reads the block and the requester from the op's record.
  void handle_resolve_request(sim::TaskCtx& task, std::uint32_t id);
  // Replay op `id`, parked at its block's home while the block moved: a
  // home-local op starts again, another node's resolve request is
  // handled again.
  void resume(sim::TaskCtx& task, std::uint32_t id);

  // Fencing bookkeeping: an RMA from `node` against block `key` counts as
  // in flight from begin_rma until rma_done, which releases any fence
  // waiting on the block and then finishes op `id`.
  void begin_rma(int node, std::uint64_t key);
  void rma_done(sim::Time t, std::uint32_t id) override;

  // Migration steps (all run at the home unless noted).
  void start_migration(sim::TaskCtx& task, Gva block_base, MoveRequest req);
  void migration_acked(sim::TaskCtx& task, Gva block_base);
  void migration_alloc(sim::TaskCtx& task, Gva block_base);
  void migration_transfer(sim::TaskCtx& task, Gva block_base);
  void finish_migration(sim::TaskCtx& task, Gva block_base);
  // Acknowledge a committed (or no-op) move: run `req.done` here if the
  // initiator is the home, else send it the notice.
  void notify_initiator(sim::TaskCtx& task, int home, MoveRequest req);

  GasCosts config_;
  std::vector<NodeState> nodes_;
  Directory dir_;  // home side: each entry is charged to its block's home
  MoveSequencer moves_;  // parks op ids at the block's home
};

}  // namespace nvgas::gas
