#include "kvstore/harness.hpp"

#include "core/world.hpp"
#include "rt/collectives.hpp"

namespace nvgas::apps::kv {

void arm_lossy_plan(Config& cfg) {
  sim::FaultRule rule;
  rule.drop = 0.01;
  rule.dup = 0.005;
  rule.delay = 0.05;
  rule.delay_ns = 3000;
  cfg.faults.rules.push_back(rule);
}

KvRunResult run_kv(const KvRunConfig& rc) {
  Config cfg = Config::with_nodes(rc.nodes, rc.mode);
  cfg.lb.policy = rc.policy;
  // Mirrors the bench_loadbalance tuning: every served op costs CPU at
  // the owner, so that is the benefit of moving a hot bucket away.
  cfg.lb.epoch_ns = 100'000;
  cfg.lb.decay_shift = 1;
  cfg.lb.max_moves_per_epoch = 4;
  cfg.lb.max_inflight = 4;
  cfg.lb.min_heat = 2 * lb::kAccessUnit;
  cfg.lb.benefit_ns_per_access = static_cast<sim::Time>(rc.kv.op_cost_ns);
  if (rc.lossy) arm_lossy_plan(cfg);

  World world(cfg);
  KvServer server(world, rc.kv);
  ClientGen gen(world, server, rc.client, rc.slo_window_ns, rc.slo_target_ns);

  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) server.setup(ctx);
    co_await world.coll().barrier(ctx);
    (void)gen.drive(ctx);
  });

  KvRunResult out;
  const sim::Time churn_begin = rc.client.t_shift;
  const sim::Time churn_end =
      rc.client.t_shift == 0 ? 0 : rc.client.t_shift + rc.churn_duration;
  out.slo = gen.merged_slo().report(churn_begin, churn_end);
  out.server = server.total_metrics();
  out.issued = gen.issued();
  out.completed = gen.completed();
  out.torn = gen.torn();
  out.no_space = gen.code_count(kNoSpace);
  out.lb_migrations = world.counters().lb_migrations;
  out.trace_hash = world.engine().trace_hash();
  out.sim_ns = world.now();
  return out;
}

}  // namespace nvgas::apps::kv
