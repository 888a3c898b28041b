// S-2 (supplementary) — topology sensitivity of the three address-space
// managers: the GUPS-style workload on a flat crossbar vs a 2-D torus vs
// a dragonfly. Multi-hop forwarding (the network-managed design's
// stale-op mechanism) gets more expensive as topologies add hops; this
// quantifies how much of the agas-net advantage survives.
#include "common.hpp"

namespace nvgas::bench {
namespace {

double gups_rate(GasMode mode, sim::TopologyKind topo, int nodes,
                 bool with_migration_churn) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.machine.mem_bytes_per_node = 8u << 20;
  cfg.machine.topology = topo;
  cfg.gas_costs.sw_cache_capacity = 1024;
  World world(cfg);

  constexpr std::uint32_t kBlockSize = 4096;
  const auto nblocks = static_cast<std::uint32_t>(32 * nodes);
  const std::uint64_t words =
      static_cast<std::uint64_t>(nblocks) * kBlockSize / 8;
  const std::uint64_t updates_per_rank = 1000;

  Gva table;
  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) {
      table = alloc_cyclic(ctx, nblocks, kBlockSize);
    }
    co_await world.coll().barrier(ctx);

    if (with_migration_churn && ctx.rank() == 0 &&
        world.gas().supports_migration()) {
      // Shuffle a quarter of the blocks off their homes so stale-op
      // forwarding is actually exercised.
      for (std::uint32_t b = 0; b < nblocks; b += 4) {
        const Gva blk =
            table.advanced(static_cast<std::int64_t>(b) * kBlockSize, kBlockSize);
        co_await migrate(ctx, blk, (blk.home(ctx.ranks()) + 2) % ctx.ranks());
      }
    }
    co_await world.coll().barrier(ctx);

    util::Rng rng(31337 + static_cast<std::uint64_t>(ctx.rank()));
    std::uint64_t remaining = updates_per_rank;
    while (remaining > 0) {
      const std::uint64_t batch = std::min<std::uint64_t>(16, remaining);
      remaining -= batch;
      rt::AndGate gate(batch);
      for (std::uint64_t i = 0; i < batch; ++i) {
        const std::uint64_t w = rng.below(words);
        fetch_add_nb(ctx, table.advanced(static_cast<std::int64_t>(w) * 8, kBlockSize),
                     1, gate);
      }
      co_await gate;
    }
    co_await world.coll().barrier(ctx);
  });
  return static_cast<double>(updates_per_rank) * nodes /
         (static_cast<double>(world.now()) / 1e9);
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const int nodes = static_cast<int>(opt.get_int("nodes", 16));
  opt.reject_unknown();

  print_header("S-2", "topology sensitivity (random access, 16 nodes)");

  using nvgas::sim::TopologyKind;
  nvgas::util::Table t("update rate by topology (quarter of blocks migrated)");
  t.columns({"topology", "pgas", "agas-sw", "agas-net", "net/pgas"});
  for (auto topo : {TopologyKind::kFlat, TopologyKind::kTorus2D,
                    TopologyKind::kDragonfly}) {
    const double p = gups_rate(nvgas::GasMode::kPgas, topo, nodes, false);
    const double s = gups_rate(nvgas::GasMode::kAgasSw, topo, nodes, true);
    const double n = gups_rate(nvgas::GasMode::kAgasNet, topo, nodes, true);
    t.cell(nvgas::sim::to_string(topo))
        .cell(nvgas::util::format_rate(p))
        .cell(nvgas::util::format_rate(s))
        .cell(nvgas::util::format_rate(n))
        .cell(n / p, 3)
        .end_row();
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: every manager slows on multi-hop topologies; the\n"
      "agas-net advantage persists because its extra hops (forwards) are\n"
      "also NIC-level, while agas-sw keeps paying CPU round trips.\n");
  return 0;
}
