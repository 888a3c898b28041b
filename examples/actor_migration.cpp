// Mobile actors under a skewed workload — the load-balancing scenario
// that motivates an *active* global address space (R-F6's workload).
//
//   build/examples/actor_migration [--nodes=8] [--mode=agas-net]
//                                  [--actors=64] [--tasks=2000]
//                                  [--zipf=0.9] [--rebalance=true]
//
// Actors are global blocks holding state; work items are parcels routed
// to each actor's current owner with apply(). All actors are *born on
// rank 0* (the common real-world pattern: data is loaded where it
// arrives), so the task stream initially hammers one rank (the kernel is
// apps/workloads/actors.hpp). With `--rebalance`, src/lb's hysteresis
// balancer migrates hot actors to idle ranks — impossible under PGAS,
// cheap under network-managed AGAS. Compare makespans:
//
//   actor_migration --mode=agas-net --rebalance=false
//   actor_migration --mode=agas-net --rebalance=true
#include <cstdio>

#include "core/nvgas.hpp"
#include "workloads/actors.hpp"

int main(int argc, char** argv) {
  namespace wl = nvgas::apps::workloads;
  const nvgas::util::Options opt(argc, argv);
  const int nodes = opt.get_int<int>("nodes", 8);
  const std::uint32_t actors = opt.get_uint<std::uint32_t>("actors", 64);
  const std::uint64_t tasks = opt.get_uint("tasks", 2000);
  const double zipf_s = opt.get_double("zipf", 0.9);
  const bool rebalance = opt.get_bool("rebalance", true);
  const bool report = opt.get_bool("report", false);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  cfg.lb = wl::actors_lb_config(rebalance ? nvgas::lb::PolicyKind::kHysteresis
                                          : nvgas::lb::PolicyKind::kNone);
  nvgas::World world(cfg);
  const bool can_migrate = world.gas().supports_migration();

  std::printf("actors: %u actors, %llu tasks (zipf %.2f), %d nodes, %s, rebalance=%s\n",
              actors, static_cast<unsigned long long>(tasks), zipf_s, nodes,
              nvgas::gas::to_string(cfg.gas_mode),
              rebalance && can_migrate ? "on" : "off");

  const wl::ActorResult r = wl::run_actors(
      world, {.actors = actors, .tasks = tasks, .zipf_s = zipf_s});

  std::printf("\nmakespan            : %s (simulated)\n",
              nvgas::util::format_ns(static_cast<double>(r.makespan)).c_str());
  std::printf("balancer migrations : %llu\n",
              static_cast<unsigned long long>(world.counters().lb_migrations));
  std::printf("peak rank load      : %llu tasks (perfect balance would be %.0f)\n",
              static_cast<unsigned long long>(r.peak_load),
              static_cast<double>(tasks) / nodes);
  std::printf("imbalance factor    : %.2fx\n", r.imbalance);
  if (report) {
    std::printf("\n%s", world.report().c_str());
  }
  if (r.tasks_run != tasks) {
    std::printf("FAIL: %llu of %llu tasks ran\n",
                static_cast<unsigned long long>(r.tasks_run),
                static_cast<unsigned long long>(tasks));
    return 1;
  }
  return 0;
}
