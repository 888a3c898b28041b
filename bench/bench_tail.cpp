// S-6 (supplementary) — tail latency under wire jitter: p50/p95/p99 of an
// 8-byte memget per manager, with seeded uniform switch-arbitration
// jitter on every wire crossing. Multi-message paths (software AGAS
// misses, NIC forwards) accumulate more jitter draws, so their tails
// spread more than their medians — the effect this experiment isolates.
#include "common.hpp"
#include "util/histogram.hpp"

namespace nvgas::bench {
namespace {

struct TailResult {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

TailResult measure(GasMode mode, sim::Time jitter, bool force_miss,
                   std::size_t sw_cache) {
  Config cfg = Config::with_nodes(4, mode);
  cfg.machine.wire_jitter_ns = jitter;
  cfg.machine.mem_bytes_per_node = 16u << 20;
  cfg.gas_costs.sw_cache_capacity = sw_cache;
  World world(cfg);

  constexpr int kSamples = 600;
  util::Samples samples;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    // Enough distinct remote blocks that force_miss mode never re-hits.
    const std::uint32_t nblocks = force_miss ? 2048 : 8;
    const Gva base = alloc_cyclic(ctx, nblocks, 64);
    std::vector<Gva> remote;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      const Gva a = base.advanced(static_cast<std::int64_t>(b) * 64, 64);
      if (a.home(ctx.ranks()) != 0) remote.push_back(a);
    }
    if (!force_miss) {
      for (const Gva a : remote) {
        (void)co_await memget_value<std::uint64_t>(ctx, a);  // warm
      }
    }
    for (int i = 0; i < kSamples; ++i) {
      const Gva a = remote[static_cast<std::size_t>(i) % remote.size()];
      const sim::Time t0 = ctx.now();
      (void)co_await memget_value<std::uint64_t>(ctx, a);
      samples.add(static_cast<double>(ctx.now() - t0));
    }
  });
  world.run();

  TailResult out;
  out.p50 = samples.percentile(50);
  out.p95 = samples.percentile(95);
  out.p99 = samples.percentile(99);
  out.max = samples.max();
  return out;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const nvgas::sim::Time jitter = opt.get_uint("jitter", 400);
  opt.reject_unknown();

  print_header("S-6", "tail latency under wire jitter (8 B memget)");

  nvgas::util::Table t("latency percentiles, ±U(0,400ns)/hop jitter");
  t.columns({"path", "p50", "p95", "p99", "max", "p99/p50"});
  struct Row {
    const char* name;
    nvgas::GasMode mode;
    bool force_miss;
    std::size_t cache;
  };
  const Row rows[] = {
      {"pgas", nvgas::GasMode::kPgas, false, 4096},
      {"agas-sw warm", nvgas::GasMode::kAgasSw, false, 4096},
      {"agas-sw miss", nvgas::GasMode::kAgasSw, true, 4},
      {"agas-net warm", nvgas::GasMode::kAgasNet, false, 4096},
  };
  for (const auto& r : rows) {
    const TailResult res = measure(r.mode, jitter, r.force_miss, r.cache);
    t.cell(r.name)
        .cell(nvgas::util::format_ns(res.p50))
        .cell(nvgas::util::format_ns(res.p95))
        .cell(nvgas::util::format_ns(res.p99))
        .cell(nvgas::util::format_ns(res.max))
        .cell(res.p99 / res.p50, 3)
        .end_row();
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: warm paths draw 2 jitter samples per op; the\n"
      "software-AGAS miss path draws 4 (+CPU queueing), so its absolute\n"
      "p99-p50 spread widens on top of a median that more than doubles.\n");
  return 0;
}
