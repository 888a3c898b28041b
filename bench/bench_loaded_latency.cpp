// S-5 (supplementary) — loaded latency: per-op latency vs offered load
// (window depth), the classic network-evaluation curve. As the window
// grows, throughput rises until a resource saturates; past that point
// latency climbs with queueing. The managers differ in WHICH resource
// saturates first: PGAS/AGAS-NET queue on NIC ports and command
// processors; AGAS-SW's misses queue on the home CPUs as well.
#include "common.hpp"

namespace nvgas::bench {
namespace {

struct LoadPoint {
  double avg_latency_ns = 0;
  double rate = 0;  // ops/s
};

LoadPoint measure(GasMode mode, std::uint64_t window, std::size_t sw_cache) {
  Config cfg = Config::with_nodes(4, mode);
  cfg.machine.mem_bytes_per_node = 16u << 20;
  cfg.gas_costs.sw_cache_capacity = sw_cache;
  World world(cfg);

  constexpr std::uint32_t kBlocks = 512;
  constexpr std::uint32_t kBlockSize = 4096;
  constexpr std::uint64_t kOps = 2000;
  const std::uint64_t words = static_cast<std::uint64_t>(kBlocks) * kBlockSize / 8;

  util::OnlineStats latency;
  sim::Time elapsed = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, kBlocks, kBlockSize);
    util::Rng rng(606);
    const sim::Time t0 = ctx.now();
    std::uint64_t remaining = kOps;
    while (remaining > 0) {
      const std::uint64_t batch = std::min(window, remaining);
      remaining -= batch;
      rt::AndGate gate(batch);
      const sim::Time issue_t = ctx.now();
      for (std::uint64_t i = 0; i < batch; ++i) {
        const auto w = static_cast<std::int64_t>(rng.below(words));
        detail::gas_of(ctx).fetch_add(
            detail::task_of(ctx), ctx.rank(),
            base.advanced(w * 8, kBlockSize), 1,
            [&gate, &latency, issue_t](sim::Time t, std::uint64_t) {
              latency.add(static_cast<double>(t - issue_t));
              gate.arrive(t);
            });
      }
      co_await gate;
    }
    elapsed = ctx.now() - t0;
  });
  world.run();

  LoadPoint out;
  out.avg_latency_ns = latency.mean();
  out.rate = static_cast<double>(kOps) / (static_cast<double>(elapsed) / 1e9);
  return out;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto windows = opt.get_uint_list("windows", {1, 2, 4, 8, 16, 32, 64});
  const std::size_t sw_cache = opt.get_uint("sw-cache", 256);
  opt.reject_unknown();

  print_header("S-5", "loaded latency: per-op latency & rate vs window depth");

  nvgas::util::Table t("remote fetch-add under load (4 nodes)");
  t.columns({"window", "pgas lat", "pgas rate", "agas-sw lat", "agas-sw rate",
             "agas-net lat", "agas-net rate"});
  for (const auto w : windows) {
    const LoadPoint p = measure(nvgas::GasMode::kPgas, w, sw_cache);
    const LoadPoint s = measure(nvgas::GasMode::kAgasSw, w, sw_cache);
    const LoadPoint n = measure(nvgas::GasMode::kAgasNet, w, sw_cache);
    t.cell(w)
        .cell(nvgas::util::format_ns(p.avg_latency_ns))
        .cell(nvgas::util::format_rate(p.rate))
        .cell(nvgas::util::format_ns(s.avg_latency_ns))
        .cell(nvgas::util::format_rate(s.rate))
        .cell(nvgas::util::format_ns(n.avg_latency_ns))
        .cell(nvgas::util::format_rate(n.rate))
        .end_row();
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: rate grows with window until a port saturates, then\n"
      "latency climbs ~linearly with depth; agas-sw saturates earliest (its\n"
      "misses consume home CPU on top of the wire).\n");
  return 0;
}
