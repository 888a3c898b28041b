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
// the balancer sees exactly the task traffic each actor receives.
//
// Results land in BENCH_loadbalance.json (cwd) for cross-PR tracking.
#include <algorithm>
#include <cstdio>

#include "common.hpp"

namespace nvgas::bench {
namespace {

constexpr std::uint32_t kActorState = 1024;
constexpr sim::Time kTaskComputeNs = 20'000;

struct LbResult {
  double makespan_ms = 0;
  std::uint64_t migrations = 0;   // balancer-issued moves
  std::uint64_t rejected = 0;     // plan entries killed by the cost gate
  double imbalance = 0;           // max node task share / fair share
  std::uint64_t trace_hash = 0;
};

LbResult run_lb(GasMode mode, lb::PolicyKind policy, std::uint32_t actors,
                std::uint64_t tasks, int nodes) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.lb.policy = policy;
  cfg.lb.epoch_ns = 100'000;
  cfg.lb.decay_shift = 1;
  cfg.lb.max_moves_per_epoch = 3;
  cfg.lb.max_inflight = 3;
  cfg.lb.min_heat = 2 * lb::kAccessUnit;
  // Every access an actor absorbs costs kTaskComputeNs of CPU at its
  // owner, so that is the per-access benefit of moving it off an
  // overloaded node.
  cfg.lb.benefit_ns_per_access = kTaskComputeNs;
  World world(cfg);

  std::vector<std::uint64_t> actor_tasks(actors, 0);
  std::uint64_t completed = 0;
  sim::Time done_ns = 0;
  rt::AndGate all_done(tasks);

  Gva actor_base;
  const auto work = rt::register_action<std::uint32_t, rt::LcoRef>(
      world.runtime().actions(), "lb.work",
      [&](Context& c, int, std::uint32_t actor, rt::LcoRef cont) {
        c.charge(kTaskComputeNs);
        ++actor_tasks[actor];
        ++completed;
        all_done.arrive(c.now());
        c.set_lco(cont);
      });

  world.spawn(0, [&](Context& ctx) -> Fiber {
    actor_base = alloc_local(ctx, actors, kActorState);

    const std::uint64_t per_rank = tasks / static_cast<std::uint64_t>(ctx.ranks());
    const std::uint64_t rem = tasks - per_rank * static_cast<std::uint64_t>(ctx.ranks());
    for (int r = 0; r < ctx.ranks(); ++r) {
      const std::uint64_t mine = per_rank + (r < static_cast<int>(rem) ? 1 : 0);
      ctx.spawn(r, [&, r, mine](Context& c) -> Fiber {
        util::Rng rng(42 + static_cast<std::uint64_t>(r));
        util::ZipfGenerator zipf(actors, 0.9);
        for (std::uint64_t i = 0; i < mine; ++i) {
          const auto actor = static_cast<std::uint32_t>(zipf.sample(rng));
          const Gva addr = actor_base.advanced(
              static_cast<std::int64_t>(actor) * kActorState, kActorState);
          rt::Event task_done;
          const rt::LcoRef ref = c.make_ref(task_done);
          co_await apply(c, addr, work, rt::pack_args(actor, ref));
          co_await task_done;
          c.release_ref(ref);
        }
      });
    }
    co_await all_done;
    done_ns = ctx.now();
  });
  world.run();

  std::vector<std::uint64_t> final_load(static_cast<std::size_t>(nodes), 0);
  for (std::uint32_t a = 0; a < actors; ++a) {
    const Gva addr =
        actor_base.advanced(static_cast<std::int64_t>(a) * kActorState, kActorState);
    final_load[static_cast<std::size_t>(world.gas().owner_of(addr).first)] +=
        actor_tasks[a];
  }
  LbResult out;
  out.makespan_ms = static_cast<double>(done_ns) / 1e6;
  out.migrations = world.counters().lb_migrations;
  out.rejected = world.counters().lb_rejected_cost;
  out.imbalance = static_cast<double>(
                      *std::max_element(final_load.begin(), final_load.end())) /
                  (static_cast<double>(tasks) / nodes);
  out.trace_hash = world.engine().trace_hash();
  return out;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto actors = static_cast<std::uint32_t>(opt.get_uint("actors", 48));
  const std::uint64_t tasks = opt.get_uint("tasks", 1200);
  const int nodes = static_cast<int>(opt.get_int("nodes", 8));
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
  for (const auto& c : cfgs) {
    const LbResult r = run_lb(c.mode, c.policy, actors, tasks, nodes);
    results.push_back(r);
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
  return pgas_inert ? 0 : 1;
}
