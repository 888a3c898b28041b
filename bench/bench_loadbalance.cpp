// R-F6 — load-imbalance repair: skewed actor workload makespan.
//
// All actors are born on rank 0 (placement skew); a closed-loop task
// stream drives them through apply(). The sweep crosses address-space
// mode with the adaptive migration subsystem's policy axis (src/lb/):
//   pgas     × {none, hysteresis} — placement frozen forever; the
//              balancer constructs inert, so both rows must be
//              byte-identical (trace hash printed to prove it),
//   agas-sw  × {none, greedy, hysteresis},
//   agas-net × {none, greedy, hysteresis}.
// Heat accrues from the resolve() calls the apply trampoline makes, so
// the balancer sees exactly the task traffic each actor receives. The
// workload is apps/workloads/actors.hpp, shared with
// examples/actor_migration. Exits 1 if the pgas rows diverge or any
// config loses or repeats a task.
//
// Results land in BENCH_loadbalance.json (cwd) for cross-PR tracking.
#include <cstdio>

#include "common.hpp"
#include "workloads/actors.hpp"

namespace nvgas::bench {
namespace {

struct LbResult {
  double makespan_ms = 0;
  std::uint64_t migrations = 0;   // balancer-issued moves
  std::uint64_t rejected = 0;     // plan entries killed by the cost gate
  double imbalance = 0;           // max node task share / fair share
  std::uint64_t trace_hash = 0;
  bool all_ran_once = false;      // per-actor task counts sum to tasks
};

LbResult run_lb(GasMode mode, lb::PolicyKind policy, std::uint32_t actors,
                std::uint64_t tasks, int nodes) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.lb = apps::workloads::actors_lb_config(policy);
  World world(cfg);
  const auto r = apps::workloads::run_actors(
      world, {.actors = actors, .tasks = tasks});

  LbResult out;
  out.makespan_ms = static_cast<double>(r.makespan) / 1e6;
  out.migrations = world.counters().lb_migrations;
  out.rejected = world.counters().lb_rejected_cost;
  out.imbalance = r.imbalance;
  out.trace_hash = world.engine().trace_hash();
  out.all_ran_once = r.tasks_run == tasks;
  return out;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto actors = opt.get_uint<std::uint32_t>("actors", 48);
  const std::uint64_t tasks = opt.get_uint("tasks", 1200);
  const int nodes = opt.get_int<int>("nodes", 8);
  const std::string out_path = opt.get("out", "BENCH_loadbalance.json");
  opt.reject_unknown();

  print_header("R-F6", "skewed actor workload: makespan across lb policies");

  struct Cfg {
    const char* name;
    nvgas::GasMode mode;
    nvgas::lb::PolicyKind policy;
  };
  using PK = nvgas::lb::PolicyKind;
  const Cfg cfgs[] = {
      {"pgas     none", nvgas::GasMode::kPgas, PK::kNone},
      {"pgas     hysteresis", nvgas::GasMode::kPgas, PK::kHysteresis},
      {"agas-sw  none", nvgas::GasMode::kAgasSw, PK::kNone},
      {"agas-sw  greedy", nvgas::GasMode::kAgasSw, PK::kGreedy},
      {"agas-sw  hysteresis", nvgas::GasMode::kAgasSw, PK::kHysteresis},
      {"agas-net none", nvgas::GasMode::kAgasNet, PK::kNone},
      {"agas-net greedy", nvgas::GasMode::kAgasNet, PK::kGreedy},
      {"agas-net hysteresis", nvgas::GasMode::kAgasNet, PK::kHysteresis},
  };

  nvgas::util::Table t("actor workload makespan");
  t.columns({"config", "makespan (ms)", "lb moves", "cost-rejected",
             "task imbalance"});
  std::vector<LbResult> results;
  bool all_ran_once = true;
  for (const auto& c : cfgs) {
    const LbResult r = run_lb(c.mode, c.policy, actors, tasks, nodes);
    results.push_back(r);
    if (!r.all_ran_once) {
      std::fprintf(stderr, "%s: not every task ran exactly once\n", c.name);
      all_ran_once = false;
    }
    t.cell(c.name)
        .cell(r.makespan_ms, 2)
        .cell(r.migrations)
        .cell(r.rejected)
        .cell(r.imbalance, 2)
        .end_row();
  }
  t.print(std::cout);

  const bool pgas_inert = results[0].trace_hash == results[1].trace_hash;
  std::printf("\npgas inert check: none vs hysteresis trace hash %s "
              "(0x%016llx vs 0x%016llx)\n",
              pgas_inert ? "IDENTICAL" : "DIVERGED",
              static_cast<unsigned long long>(results[0].trace_hash),
              static_cast<unsigned long long>(results[1].trace_hash));
  std::printf(
      "Expected shape: immobile configs pay the full placement skew;\n"
      "every active policy repairs it; hysteresis matches greedy's\n"
      "makespan with strictly fewer migrations (threshold + cooldown).\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"loadbalance\",\n"
               "  \"actors\": %u,\n  \"tasks\": %llu,\n  \"nodes\": %d,\n"
               "  \"configs\": [\n",
               actors, static_cast<unsigned long long>(tasks), nodes);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LbResult& r = results[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"policy\": \"%s\", "
                 "\"makespan_ms\": %.3f, \"lb_migrations\": %llu, "
                 "\"cost_rejected\": %llu, \"imbalance\": %.3f, "
                 "\"trace_hash\": \"0x%016llx\"}%s\n",
                 nvgas::gas::to_string(cfgs[i].mode), nvgas::lb::to_string(cfgs[i].policy),
                 r.makespan_ms, static_cast<unsigned long long>(r.migrations),
                 static_cast<unsigned long long>(r.rejected), r.imbalance,
                 static_cast<unsigned long long>(r.trace_hash),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"pgas_inert\": %s\n}\n",
               pgas_inert ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return pgas_inert && all_ran_once ? 0 : 1;
}
