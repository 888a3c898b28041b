// S-7 (supplementary) — service continuity during migration churn: a
// random-access workload's throughput time-series while blocks migrate
// underneath it. The paper's operational claim is that NIC-managed
// migration perturbs running traffic far less than the software
// protocol (whose invalidation storms and directory queuing stall
// concurrent accesses).
#include "common.hpp"

namespace nvgas::bench {
namespace {

constexpr sim::Time kWindowNs = 100'000;            // 100 us buckets
constexpr sim::Time kRunNs = 2'000'000;             // 2 ms total
constexpr sim::Time kChurnStartNs = 600'000;        // churn in [0.6, 1.4] ms
constexpr sim::Time kChurnEndNs = 1'400'000;
constexpr std::uint32_t kBlocks = 64;
constexpr std::uint32_t kBlockSize = 4096;

std::vector<double> run_timeline(GasMode mode, bool with_churn) {
  Config cfg = Config::with_nodes(8, mode);
  cfg.machine.mem_bytes_per_node = 16u << 20;
  if (with_churn) {
    // An lb::Balancer tuned to storm: zero-threshold greedy on a 3 µs
    // epoch keeps chasing the stochastic heat gaps of a uniform random
    // workload, so blocks migrate continuously while the window is
    // enabled — the rebalancing-storm shape the old hand-rolled churn
    // fibers produced, now driven through the real subsystem.
    cfg.lb.policy = lb::PolicyKind::kGreedy;
    cfg.lb.epoch_ns = 3'000;
    cfg.lb.decay_shift = 1;
    cfg.lb.max_moves_per_epoch = 4;
    cfg.lb.max_inflight = 4;
    cfg.lb.min_heat = 0;
    cfg.lb.benefit_ns_per_access = 1'000'000;  // disarm the cost gate
  }
  World world(cfg);
  if (world.balancer() != nullptr) world.balancer()->set_enabled(false);

  std::vector<std::uint64_t> window_ops(kRunNs / kWindowNs + 2, 0);
  const std::uint64_t words =
      static_cast<std::uint64_t>(kBlocks) * kBlockSize / 8;

  Gva table;
  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) table = alloc_cyclic(ctx, kBlocks, kBlockSize);
    co_await world.coll().barrier(ctx);

    if (with_churn && ctx.rank() == 7 && world.balancer() != nullptr &&
        world.balancer()->active()) {
      ctx.spawn(7, [&](Context& c) -> Fiber {
        co_await c.sleep(kChurnStartNs);
        world.balancer()->set_enabled(true);
        co_await c.sleep(kChurnEndNs - kChurnStartNs);
        world.balancer()->set_enabled(false);
      });
    }

    util::Rng rng(1000 + static_cast<std::uint64_t>(ctx.rank()));
    while (ctx.now() < kRunNs) {
      rt::AndGate gate(8);
      for (int i = 0; i < 8; ++i) {
        const auto w = static_cast<std::int64_t>(rng.below(words));
        detail::gas_of(ctx).fetch_add(
            detail::task_of(ctx), ctx.rank(),
            table.advanced(w * 8, kBlockSize), 1,
            [&window_ops, &gate](sim::Time t, std::uint64_t) {
              const auto win = t / kWindowNs;
              if (win < window_ops.size()) ++window_ops[win];
              gate.arrive(t);
            });
      }
      co_await gate;
    }
  });

  std::vector<double> rates;
  for (std::size_t w = 0; w < kRunNs / kWindowNs; ++w) {
    rates.push_back(static_cast<double>(window_ops[w]) /
                    (static_cast<double>(kWindowNs) / 1e9) / 1e6);  // M ops/s
  }
  if (with_churn) {
    std::printf("%s churn: %llu balancer migrations, %llu bounced\n",
                nvgas::gas::to_string(mode),
                static_cast<unsigned long long>(world.counters().lb_migrations),
                static_cast<unsigned long long>(world.counters().lb_bounced));
  }
  return rates;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  nvgas::util::Options(argc, argv).reject_unknown();  // takes no flags
  print_header("S-7", "throughput time-series under migration churn");

  const auto pgas = run_timeline(nvgas::GasMode::kPgas, false);
  const auto sw = run_timeline(nvgas::GasMode::kAgasSw, true);
  const auto net = run_timeline(nvgas::GasMode::kAgasNet, true);

  nvgas::util::Table t("update rate per 100us window (M ops/s)");
  t.columns({"t (us)", "phase", "pgas (no churn)", "agas-sw", "agas-net",
             "net/sw"});
  for (std::size_t w = 0; w < pgas.size(); ++w) {
    const auto t_us = static_cast<std::uint64_t>(w) * 100;
    const bool churning = t_us * 1000 >= kChurnStartNs && t_us * 1000 < kChurnEndNs;
    t.cell(t_us)
        .cell(churning ? "CHURN" : "-")
        .cell(pgas[w], 2)
        .cell(sw[w], 2)
        .cell(net[w], 2)
        .cell(sw[w] > 0 ? net[w] / sw[w] : 0.0, 2)
        .end_row();
  }
  t.print(std::cout);

  // Summarize the churn-phase degradation.
  auto phase_mean = [&](const std::vector<double>& v, bool in_churn) {
    double sum = 0;
    int n = 0;
    for (std::size_t w = 0; w < v.size(); ++w) {
      const auto ns = static_cast<nvgas::sim::Time>(w) * nvgas::bench::kWindowNs;
      const bool churning = ns >= nvgas::bench::kChurnStartNs && ns < nvgas::bench::kChurnEndNs;
      if (churning == in_churn && ns >= 200'000) {  // skip warmup
        sum += v[w];
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double sw_quiet = phase_mean(sw, false);
  const double sw_churn = phase_mean(sw, true);
  const double net_quiet = phase_mean(net, false);
  const double net_churn = phase_mean(net, true);
  std::printf(
      "\nchurn-phase retention: agas-sw %.1f%%, agas-net %.1f%%\n",
      100.0 * sw_churn / sw_quiet, 100.0 * net_churn / net_quiet);
  std::printf(
      "Expected shape: both dip during churn; agas-net retains a larger\n"
      "fraction of its quiet-phase throughput (no invalidation storms, no\n"
      "directory queuing — just occasional forwarded hops).\n");
  return 0;
}
