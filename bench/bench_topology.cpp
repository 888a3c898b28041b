// S-2 (supplementary) — topology sensitivity of the three address-space
// managers: the GUPS-style workload on a flat crossbar vs a 2-D torus vs
// a dragonfly. Multi-hop forwarding (the network-managed design's
// stale-op mechanism) gets more expensive as topologies add hops; this
// quantifies how much of the agas-net advantage survives.
#include "common.hpp"
#include "workloads/gups.hpp"

namespace nvgas::bench {
namespace {

// A quarter of the blocks move off their homes first, so stale-op
// forwarding is actually exercised (inert under pgas).
double gups_rate(GasMode mode, sim::TopologyKind topo, int nodes) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.machine.mem_bytes_per_node = 8u << 20;
  cfg.machine.topology = topo;
  cfg.gas_costs.sw_cache_capacity = 1024;
  World world(cfg);
  const std::uint64_t updates_per_rank = 1000;
  const sim::Time t = apps::workloads::run_gups(
      world, {.blocks = static_cast<std::uint32_t>(32 * nodes),
              .updates_per_rank = updates_per_rank,
              .seed_base = 31337,
              .migrate_quarter = true});
  return static_cast<double>(updates_per_rank) * nodes /
         (static_cast<double>(t) / 1e9);
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
    const double p = gups_rate(nvgas::GasMode::kPgas, topo, nodes);
    const double s = gups_rate(nvgas::GasMode::kAgasSw, topo, nodes);
    const double n = gups_rate(nvgas::GasMode::kAgasNet, topo, nodes);
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
