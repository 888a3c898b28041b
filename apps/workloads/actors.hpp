// The skewed mobile-actor workload (R-F6): every actor is a 1 KiB global
// block born on rank 0, and each rank drives a closed-loop Zipf stream of
// tasks to the actors through apply(), so the stream first hammers rank 0
// and placement repair shows up directly as makespan. Shared by
// examples/actor_migration and bench_loadbalance; the repair itself is
// src/lb's balancer, tuned by actors_lb_config.
#pragma once

#include <cstdint>

#include "core/world.hpp"
#include "lb/policy.hpp"

namespace nvgas::apps::workloads {

// CPU time each task charges at its actor's owner.
inline constexpr sim::Time kActorTaskNs = 20'000;

struct ActorSpec {
  std::uint32_t actors = 0;
  std::uint64_t tasks = 0;  // split evenly over the ranks
  double zipf_s = 0.9;      // actor popularity skew
};

struct ActorResult {
  sim::Time makespan = 0;      // when the last task completed
  std::uint64_t tasks_run = 0;  // summed over every actor; equals tasks
  // Tasks run by the actors each node owns at the end, busiest node,
  // and that over the fair share tasks / nodes.
  std::uint64_t peak_load = 0;
  double imbalance = 0;
};

// R-F6's balancer tuning for `policy`: each task costs kActorTaskNs at
// the owner, so that is the per-access benefit of a move.
lb::LbConfig actors_lb_config(lb::PolicyKind policy);

// Run the workload on `world` until every task has completed.
ActorResult run_actors(World& world, const ActorSpec& spec);

}  // namespace nvgas::apps::workloads
