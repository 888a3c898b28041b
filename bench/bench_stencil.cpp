// R-F5 — stencil proxy application (heat2d ghost exchange), weak scaling.
//
// Row-distributed Jacobi iteration: each rank updates its rows after
// pulling neighbour rows with one-sided memgets (the ghost exchange).
// Weak scaling: rows-per-rank fixed, nodes sweep. The figure's series:
// time per iteration per manager. The kernel is apps/workloads/stencil.hpp,
// shared with examples/heat2d. Exits 1 if any run fails to conserve heat.
#include "common.hpp"
#include "workloads/stencil.hpp"

namespace nvgas::bench {
namespace {

constexpr std::uint32_t kCols = 256;
constexpr std::uint32_t kRowsPerRank = 8;
constexpr int kIters = 4;

// Median time per iteration; false in `conserved` if the run lost heat.
double per_iteration_ns(GasMode mode, int nodes, bool& conserved) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.machine.mem_bytes_per_node = 64u << 20;
  World world(cfg);
  const auto r = apps::workloads::run_stencil(
      world, {.rows = static_cast<std::uint32_t>(kRowsPerRank * nodes),
              .cols = kCols,
              .iters = kIters});
  if (!(r.conservation_error() < 1e-9)) {
    std::fprintf(stderr, "%s, %d nodes: heat not conserved (error %.2e)\n",
                 gas::to_string(mode), nodes, r.conservation_error());
    conserved = false;
  }
  util::Samples iter_times;
  for (const sim::Time t : r.iteration_ns) iter_times.add(static_cast<double>(t));
  return iter_times.median();
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto node_counts = opt.get_uint_list<int>("nodes", {2, 4, 8, 16});
  opt.reject_unknown();

  print_header("R-F5", "stencil (heat2d) time per iteration, weak scaling");

  nvgas::util::Table t("time per Jacobi iteration");
  t.columns({"nodes", "grid", "pgas", "agas-sw", "agas-net", "net/pgas"});
  bool conserved = true;
  for (const int nodes : node_counts) {
    const double p = per_iteration_ns(nvgas::GasMode::kPgas, nodes, conserved);
    const double s = per_iteration_ns(nvgas::GasMode::kAgasSw, nodes, conserved);
    const double net = per_iteration_ns(nvgas::GasMode::kAgasNet, nodes, conserved);
    char grid[32];
    std::snprintf(grid, sizeof grid, "%ux%u", kRowsPerRank * nodes, kCols);
    t.cell(nodes)
        .cell(grid)
        .cell(nvgas::util::format_ns(p))
        .cell(nvgas::util::format_ns(s))
        .cell(nvgas::util::format_ns(net))
        .cell(net / p, 3)
        .end_row();
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: regular communication = warm caches for everyone;\n"
      "net/pgas ≈ 1 throughout — AGAS mobility costs nothing when unused.\n");
  return conserved ? 0 : 1;
}
