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
//      queued work, notify initiator.
#pragma once

#include <unordered_map>
#include <variant>
#include <vector>

#include "gas/directory.hpp"
#include "gas/gas_api.hpp"
#include "gas/move_sequencer.hpp"
#include "net/nic_tlb.hpp"
#include "util/inline_function.hpp"
#include "util/slab.hpp"

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
  // audit_quiescent also names the first op still parked in the slab, by
  // kind, block and issuing node.
  [[nodiscard]] std::string audit_translation() const override;
  [[nodiscard]] std::string audit_quiescent() const override;

  // Introspection for tests/benches.
  [[nodiscard]] const net::NicTlb& cache(int node) const {
    return nodes_.at(static_cast<std::size_t>(node)).cache;
  }
  // Every home's entries; a block's home is arithmetic on its GVA.
  [[nodiscard]] const Directory& directory() const { return dir_; }

 protected:
  void do_memput(sim::TaskCtx& task, int node, Gva dst,
                 std::vector<std::byte> data, net::OnDone done,
                 net::OnDone remote_notify) override;
  void do_memget(sim::TaskCtx& task, int node, Gva src, std::size_t len,
                 net::OnData done) override;
  void do_fetch_add(sim::TaskCtx& task, int node, Gva addr,
                    std::uint64_t operand, net::OnU64 done) override;
  void do_resolve(sim::TaskCtx& task, int node, Gva addr, OnOwner done) override;
  std::pair<int, sim::Lva> drop_block_state(Gva block_base) override;

 private:
  static constexpr std::uint32_t kNoOp = ~std::uint32_t{0};

  // An in-flight op, parked in the ops_ slab from issue to completion;
  // every hop's closure carries only its slab id. Ops that miss on one
  // block while its resolve is in flight chain through `next`, in issue
  // order, and run when the reply arrives.
  struct Op {
    // The caller's completion. Its alternative is the op's kind, in the
    // order of Kind.
    using Done = std::variant<net::OnDone, net::OnData, net::OnU64, OnOwner>;
    enum class Kind : std::uint8_t { kPut, kGet, kFadd, kResolve };

    int node = -1;  // the issuing node
    Gva block;      // the block's base
    std::uint32_t offset = 0;
    std::uint32_t len = 0;         // get length
    std::uint32_t next = kNoOp;    // next op waiting on the same resolve
    std::uint64_t operand = 0;     // fetch_add operand
    std::vector<std::byte> data;   // put payload
    net::OnDone on_remote;         // put's remote notification
    Done done;

    [[nodiscard]] Kind kind() const { return static_cast<Kind>(done.index()); }
  };
  // A resolve request in flight from a node, and the first and last op
  // waiting on its reply.
  struct Resolving {
    std::uint64_t key;
    std::uint32_t first;
    std::uint32_t last;
  };
  // A block a node has RMAs in flight against, and how many.
  struct InFlight {
    std::uint64_t key;
    std::uint32_t rmas;
  };

  // Parked continuations waiting for an RMA fence to drain. Stored
  // out-of-line (never copied, moved in/out once), so the fixed 48-byte
  // inline buffer replaces a heap-allocating std::function per waiter.
  using FenceWaiter = util::InlineFunction<void(sim::Time), 48>;
  // Work parked at the home while a block is mid-migration.
  using DeferredWork = util::InlineFunction<void(sim::TaskCtx&), 48>;

  struct NodeState {
    explicit NodeState(std::size_t cache_capacity) : cache(cache_capacity) {}
    // Source side: unpinned entries only.
    net::NicTlb cache;
    // A node has at most one entry per block it is waiting on, a few at
    // a time, so both are scanned linearly.
    std::vector<Resolving> resolving;
    std::vector<InFlight> in_flight;
    // simlint:allow(D1: vector extracted per key; the map is never iterated)
    std::unordered_map<std::uint64_t, std::vector<FenceWaiter>> fence_waiters;
  };

  [[nodiscard]] NodeState& st(int node) {
    return nodes_.at(static_cast<std::size_t>(node));
  }
  [[nodiscard]] int home_of_key(Gva block_base) const {
    return block_base.home(fabric_->nodes());
  }

  // An op issued by `node` against `addr`, of the kind `done` names; the
  // caller fills in the payload.
  [[nodiscard]] static Op make_op(int node, Gva addr, Op::Done done);

  // Resolve op `id`'s block from its node, then run it. Handles
  // home-local lookups, cache hits, misses (request/response), and
  // queuing while the block is moving.
  void with_translation(sim::TaskCtx& task, std::uint32_t id);
  // Carry out op `id` against the valid translation `e`.
  void run(sim::TaskCtx& task, std::uint32_t id, const net::TlbEntry& e);

  // Home-side request processing (runs as a CPU task at the home).
  void handle_resolve_request(sim::TaskCtx& task, Gva block_base, int requester);

  // Fencing bookkeeping: an RMA from `node` against block `key` counts as
  // in flight from begin_rma until finish_rma takes its op out of the
  // slab and releases any fence waiting on the block.
  void begin_rma(int node, std::uint64_t key);
  [[nodiscard]] Op finish_rma(sim::Time t, std::uint32_t id);
  [[nodiscard]] std::uint32_t rmas_in_flight(int node, std::uint64_t key) const;

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
  util::Slab<Op> ops_{"agas-sw op"};  // in-flight ops by id
  Directory dir_;  // home side: each entry is charged to its block's home
  MoveSequencer<DeferredWork> moves_;  // parks work at the block's home
};

}  // namespace nvgas::gas
