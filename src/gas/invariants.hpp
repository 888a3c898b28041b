// Protocol invariant oracle for the mcheck model checker (and for the
// migration/fuzz tests, which run it cheaply outside mcheck).
//
// The managers report protocol events through an attached
// InvariantObserver (push hooks); the observer cross-checks them against
// the protocol contract and, at event boundaries, pulls structural
// audits from the manager (GasBase::audit_translation / audit_quiescent).
// Together these check, on EVERY explored schedule:
//
//   * directory <-> source cache <-> NIC-TLB coherence — every cached
//     translation anywhere is current-generation, or (agas-net)
//     stale-detectable: generation strictly below the authoritative
//     record so the owner NACKs/forwards it;
//   * block-generation monotonicity — each migration commit bumps the
//     block generation by exactly one, never reuses or skips;
//   * no writes land mid-fence — once a move's invalidation fence
//     completes, no remote op may begin on the block until the commit;
//   * in-flight conservation — every message injected is delivered
//     (messages and bytes), every remote op that begins ends, and
//     nothing is left queued at quiescence;
//   * exactly-once memput_notify — every registered remote notification
//     fires exactly once.
//
// Violations are RECORDED, never thrown: an exception would unwind
// through coroutine frames and engine callbacks and leak them (the
// sanitizer CI runs with detect_leaks=1). The harness checks ok() after
// the event queue drains.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/counters.hpp"
#include "sim/time.hpp"

namespace nvgas::gas {

class GasBase;

// One completed operation in a concurrent single-word history, for the
// Wing–Gong-style sequential-consistency check. `invoke`/`complete` are
// the simulated real-time bounds of the operation as the issuing fiber
// observed them.
struct HistOp {
  enum class Kind : std::uint8_t { kPut, kGet, kFadd };
  Kind kind = Kind::kPut;
  int proc = -1;           // issuing rank
  std::uint64_t word = 0;  // word index within the block
  std::uint64_t value = 0;   // put: value written; fadd: operand
  std::uint64_t result = 0;  // get: value returned; fadd: value fetched
  sim::Time invoke = 0;
  sim::Time complete = 0;
};

// Wing & Gong's linearizability DFS specialized to single-word put/get/
// fetch-add histories (initial memory all-zero): searches for a total
// order that (a) respects real time — an op may not be ordered before
// one that completed before it was invoked — and (b) is legal for each
// word. Memoized on (chosen-set, memory-state) so duplicate frontiers
// are pruned. Returns "" if such an order exists, else a description of
// the non-linearizable history. Histories longer than 26 ops are not
// checked (bounded checker; mcheck scenarios keep histories small).
[[nodiscard]] std::string check_linearizable(
    const std::vector<HistOp>& history);

class InvariantObserver {
 public:
  InvariantObserver() = default;
  explicit InvariantObserver(GasBase& gas) { attach(gas); }
  ~InvariantObserver();
  InvariantObserver(const InvariantObserver&) = delete;
  InvariantObserver& operator=(const InvariantObserver&) = delete;

  // Registers this observer with the manager (GasBase::set_observer).
  // The destructor detaches, so declare the observer AFTER the World.
  void attach(GasBase& gas);

  // --- push hooks, called by the managers (all no-throw) ------------------
  // A remote op (put/get/fadd payload, not control traffic) started /
  // finished against `block_key` from `node`.
  void on_remote_op_begin(int node, std::uint64_t block_key);
  void on_remote_op_end(int node, std::uint64_t block_key);
  // A migration of `block_key` started (home marked it moving).
  void on_migration_start(std::uint64_t block_key);
  // The move's invalidation/drain fence completed: every sharer ACKed and
  // the home drained. From here until the commit, no op may begin.
  void on_fence_complete(std::uint64_t block_key);
  // The move committed: `new_generation` is the block's generation after
  // the bump. Triggers a structural translation audit.
  void on_migration_commit(std::uint64_t block_key, int new_owner,
                           std::uint32_t new_generation);
  // Block freed: forget its protocol state (keys may be reused).
  void on_free(std::uint64_t block_key);

  // --- balancer migration ledger (src/lb) ---------------------------------
  // lb::Balancer brackets every migration it initiates with this pair so
  // quiescence can prove balancer-initiated moves are conserved: every
  // issue reaches its completion callback (and thus shows up in the same
  // message/byte ledger as any other migration), none is dropped by the
  // throttle after being handed to the manager.
  void on_balancer_migrate_issued(std::uint64_t block_key);
  void on_balancer_migrate_done(std::uint64_t block_key);

  // Exactly-once signal ledger for memput_notify remote notifications:
  // expect_signal() registers one expected delivery and returns its
  // token; on_signal() marks it fired. GasBase::instrument_signal wraps
  // callbacks in this pair.
  [[nodiscard]] std::uint64_t expect_signal();
  void on_signal(std::uint64_t token, sim::Time t);

  // --- history recording (scenario workloads) -----------------------------
  void record(const HistOp& op) { history_.push_back(op); }
  [[nodiscard]] const std::vector<HistOp>& history() const { return history_; }

  // --- pull audits --------------------------------------------------------
  // Structural translation audit via the attached manager; records a
  // violation if it reports one. Called automatically on every migration
  // commit; harnesses may call it at any event boundary.
  void audit_structures();

  // Full end-of-run audit: conservation (messages, bytes, op begin/end,
  // signal ledger), no migration left uncommitted, manager structural +
  // quiescence audits, and the linearizability check over any recorded
  // history. Returns first_violation() ("" when everything held).
  std::string check_quiescent(const sim::Counters& counters);

  // Record a violation found by the harness itself (deadlock, livelock,
  // wrong data). First violation wins; all are counted.
  void fail(const std::string& message);

  [[nodiscard]] bool ok() const { return violation_.empty(); }
  [[nodiscard]] const std::string& first_violation() const {
    return violation_;
  }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  // Number of individual invariant evaluations performed (reported by
  // mcheck as its per-schedule check count).
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 private:
  struct KeyState {
    std::uint32_t generation = 0;
    bool moving = false;
    bool fenced = false;  // fence complete, commit pending
    std::uint64_t inflight_total = 0;
    std::map<int, std::uint64_t> inflight_by_node;
  };

  GasBase* gas_ = nullptr;
  // Ordered so quiescence sweeps are deterministic.
  std::map<std::uint64_t, KeyState> keys_;
  std::vector<std::uint8_t> fired_;  // signal token -> delivery count
  // Balancer migration ledger: issued must equal done at quiescence and
  // per-key issues may not nest (the balancer throttles per block).
  std::map<std::uint64_t, std::uint64_t> lb_inflight_;
  std::uint64_t lb_issued_ = 0;
  std::uint64_t lb_done_ = 0;
  std::vector<HistOp> history_;
  std::string violation_;
  std::uint64_t violations_ = 0;
  std::uint64_t checks_ = 0;
};

}  // namespace nvgas::gas
