// SPMD collectives built on parcels + LCOs.
//
// Two algorithms, selectable at construction:
//
//   * kFlat — root-counted: every rank reports to rank 0, which releases
//     everyone. O(P) messages *at the root* — its rx port and CPU
//     serialize the fan-in, a real effect worth modelling.
//   * kTree — binomial tree: contributions combine up the tree
//     (parent(r) clears r's lowest set bit), releases flow back down.
//     O(log P) depth, O(1) fan-in per node.
//
// Calls must be made SPMD: every rank performs the same sequence of
// collective calls.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rt/context.hpp"
#include "rt/lco.hpp"
#include "rt/runtime.hpp"

namespace nvgas::rt {

enum class CollAlgo : std::uint8_t { kFlat = 0, kTree = 1 };

[[nodiscard]] constexpr const char* to_string(CollAlgo a) {
  return a == CollAlgo::kFlat ? "flat" : "tree";
}

class Collectives {
 public:
  explicit Collectives(Runtime& rt, CollAlgo algo = CollAlgo::kFlat);
  Collectives(const Collectives&) = delete;
  Collectives& operator=(const Collectives&) = delete;

  [[nodiscard]] CollAlgo algo() const { return algo_; }

  // Usage: co_await coll.barrier(ctx);
  [[nodiscard]] Event& barrier(Context& ctx);

  // Global sum; every rank receives the total.
  // Usage: double total = co_await coll.allreduce_sum(ctx, value);
  [[nodiscard]] Future<double>& allreduce_sum(Context& ctx, double value);

  // Binomial-tree helpers (public for tests).
  [[nodiscard]] static int tree_parent(int rank) { return rank & (rank - 1); }
  [[nodiscard]] static std::vector<int> tree_children(int rank, int ranks);

 private:
  struct BarrierGen {
    int arrived = 0;
  };
  struct ReduceGen {
    int arrived = 0;
    double acc = 0.0;
  };
  // Tree state at each node for one generation: contributions expected
  // from children plus self.
  struct TreeGen {
    int remaining = -1;  // initialized lazily to children+1
    double acc = 0.0;
  };

  struct NodeState {
    std::uint64_t next_barrier_gen = 0;
    std::uint64_t next_reduce_gen = 0;
    // LCO storage: kept alive for the life of the Collectives object (the
    // count is bounded by the number of collective calls).
    // simlint:allow(D1: keyed by generation, find only, never iterated)
    std::unordered_map<std::uint64_t, std::unique_ptr<Event>> barrier_events;
    // simlint:allow(D1: keyed by generation, find only, never iterated)
    std::unordered_map<std::uint64_t, std::unique_ptr<Future<double>>> reduce_futures;
    // Tree progress (barrier and reduce share the structure).
    // simlint:allow(D1: keyed by generation, find/erase only, never iterated)
    std::unordered_map<std::uint64_t, TreeGen> tree_barrier;
    // simlint:allow(D1: keyed by generation, find/erase only, never iterated)
    std::unordered_map<std::uint64_t, TreeGen> tree_reduce;
  };

  Event& barrier_event(int node, std::uint64_t gen);
  Future<double>& reduce_future(int node, std::uint64_t gen);

  // Tree machinery: account one contribution at `node`; when complete,
  // send up or (at the root) start the downward release.
  void tree_barrier_contribute(Context& c, std::uint64_t gen);
  void tree_reduce_contribute(Context& c, std::uint64_t gen, double value);
  void tree_release_barrier(Context& c, std::uint64_t gen);
  void tree_release_reduce(Context& c, std::uint64_t gen, double total);

  Runtime& rt_;
  CollAlgo algo_;
  std::vector<NodeState> nodes_;
  // Root-side progress for the flat algorithm, keyed by generation.
  // simlint:allow(D1: keyed by generation, find/erase only, never iterated)
  std::unordered_map<std::uint64_t, BarrierGen> barrier_progress_;
  // simlint:allow(D1: keyed by generation, find/erase only, never iterated)
  std::unordered_map<std::uint64_t, ReduceGen> reduce_progress_;

  ActionId barrier_arrive_ = kInvalidAction;
  ActionId barrier_release_ = kInvalidAction;
  ActionId reduce_arrive_ = kInvalidAction;
  ActionId reduce_release_ = kInvalidAction;
  // Tree actions.
  ActionId tree_barrier_up_ = kInvalidAction;
  ActionId tree_barrier_down_ = kInvalidAction;
  ActionId tree_reduce_up_ = kInvalidAction;
  ActionId tree_reduce_down_ = kInvalidAction;
};

}  // namespace nvgas::rt
