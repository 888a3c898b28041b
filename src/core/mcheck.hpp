// mcheck: a bounded model checker over the deterministic simulator.
//
// The engine executes one delivery order per program; mcheck re-executes
// small protocol scenarios under systematically perturbed orders and
// checks the GAS protocol invariants (gas/invariants.hpp) on every one.
// The exploration is delay-bounded (Emmi/Qadeer-style): a Schedule picks
// at most `delay_bound` injections and delays each by one of the
// Explorer's quanta; iterative-deepening DFS enumerates schedules,
// pruning branches whose delivery-order hash was already seen (a delayed
// message that did not actually reorder anything explores nothing new).
//
// Every run is bit-for-bit reproducible from its schedule string alone,
// so a violation report is a replayable counterexample:
//
//   ./mcheck --scenario=move-under-put --mode=agas-sw --replay=17:2,40:1
//
// See docs/MODEL_CHECKING.md for the method and its soundness argument.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/world.hpp"
#include "gas/invariants.hpp"
#include "sim/explorer.hpp"

namespace nvgas::core {

struct McheckOptions {
  gas::GasMode mode = gas::GasMode::kAgasNet;
  int nodes = 8;
  // Maximum number of simultaneously delayed injections per schedule.
  int delay_bound = 2;
  // Exploration budget: schedules executed per scenario (the DFS frontier
  // is cut off once this many runs have been spent).
  std::uint64_t max_schedules = 3000;
  // Explorer commutativity window (ns).
  sim::Time window_ns = 2500;
  // Livelock watchdog: events per run before the run is declared stuck.
  std::uint64_t max_events = 2'000'000;
  // Seeded protocol mutation (self-validation): the software AGAS home
  // skips one sharer's invalidation during migration.
  bool fault_sw_skip_sharer_inv = false;
};

struct McheckResult {
  std::string scenario;
  gas::GasMode mode = gas::GasMode::kAgasNet;
  std::uint64_t choice_points = 0;     // commutative points in the baseline
  std::uint64_t schedules_run = 0;     // worlds executed
  std::uint64_t distinct_orders = 0;   // unique delivery-order hashes seen
  std::uint64_t invariant_checks = 0;  // invariant evaluations, summed
  bool violation = false;
  std::string counterexample;  // sim::Schedule::str() form, replayable
  std::string message;         // first violation description
};

// One model-checking workload: `start` spawns the scenario's fibers into
// a freshly built world (history recording and failure reporting go
// through `obs`) and returns a post-drain verifier for end-state data
// (may be empty). Scenarios must be deterministic given the schedule:
// no wall clock, no unseeded randomness.
struct Scenario {
  std::string name;
  std::string description;
  std::function<std::function<void()>(World&, gas::InvariantObserver&)> start;
  // Optional Config overlay applied before the world is built (e.g. to
  // enable the lb balancer for rebalance scenarios).
  std::function<void(Config&)> configure;
};

// The built-in scenario library: move-under-put, put-put-race,
// stale-cache-storm, fence-chain-signal, rebalance-under-put,
// drop-under-put, retransmit-vs-migrate, chained-move-resolve.
[[nodiscard]] std::vector<Scenario> scenario_library();

// Explores `sc` under `opt` (baseline first, then delay-bounded DFS).
// Stops at the first invariant violation and returns its schedule.
[[nodiscard]] McheckResult run_scenario(const Scenario& sc,
                                        const McheckOptions& opt);

// Executes exactly one schedule (counterexample replay).
[[nodiscard]] McheckResult run_one(const Scenario& sc, const McheckOptions& opt,
                                   const sim::Schedule& schedule);

}  // namespace nvgas::core
