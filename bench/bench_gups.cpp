// R-F3 — random-access (GUPS-style) throughput vs node count.
//
// Every rank performs windowed fetch-adds on random words of a cyclic
// table that grows with the node count (weak scaling). The figure's
// series: updates/second per manager as nodes grow. The structural
// prediction: AGAS-SW's directory traffic hits home CPUs and falls
// behind; AGAS-NET stays near PGAS at every scale.
#include "common.hpp"
#include "workloads/gups.hpp"

namespace nvgas::bench {
namespace {

// Simulated-time update rate.
double gups(GasMode mode, int nodes, std::uint64_t updates_per_rank,
            std::size_t sw_cache_capacity) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.machine.mem_bytes_per_node = 16u << 20;
  cfg.gas_costs.sw_cache_capacity = sw_cache_capacity;
  World world(cfg);
  // Weak scaling: 64 blocks per rank.
  const sim::Time t = apps::workloads::run_gups(
      world, {.blocks = static_cast<std::uint32_t>(64 * nodes),
              .updates_per_rank = updates_per_rank,
              .seed_base = 1234567});
  return static_cast<double>(updates_per_rank) * nodes /
         (static_cast<double>(t) / 1e9);
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const std::uint64_t updates = opt.get_uint("updates", 2000);
  // A deliberately bounded software cache: the table working set exceeds
  // it at scale, exactly the regime where directories melt.
  const std::size_t sw_cache = opt.get_uint("sw-cache", 1024);

  const auto node_counts = opt.get_uint_list<int>("nodes", {2, 4, 8, 16, 32});
  opt.reject_unknown();
  print_header("R-F3", "random-access throughput vs nodes (weak scaling)");

  nvgas::util::Table t("GUPS-style update rate");
  t.columns({"nodes", "pgas", "agas-sw", "agas-net", "net/pgas", "net/sw"});
  for (const int nodes : node_counts) {
    const double p = gups(nvgas::GasMode::kPgas, nodes, updates, sw_cache);
    const double s = gups(nvgas::GasMode::kAgasSw, nodes, updates, sw_cache);
    const double net = gups(nvgas::GasMode::kAgasNet, nodes, updates, sw_cache);
    t.cell(nodes)
        .cell(nvgas::util::format_rate(p))
        .cell(nvgas::util::format_rate(s))
        .cell(nvgas::util::format_rate(net))
        .cell(net / p, 3)
        .cell(net / s, 3)
        .end_row();
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: net/pgas stays ≈ 1 at every node count; net/sw\n"
      "grows with scale as software cache misses route through home CPUs.\n");
  return 0;
}
