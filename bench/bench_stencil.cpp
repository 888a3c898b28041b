// R-F5 — stencil proxy application (heat2d ghost exchange), weak scaling.
//
// Row-distributed Jacobi iteration: each rank updates its rows after
// pulling neighbour rows with one-sided memgets (the ghost exchange).
// Weak scaling: rows-per-rank fixed, nodes sweep. The figure's series:
// time per iteration per manager.
#include "common.hpp"

namespace nvgas::bench {
namespace {

constexpr std::uint32_t kCols = 256;
constexpr std::uint32_t kRowBytes = kCols * sizeof(double);
constexpr std::uint32_t kRowsPerRank = 8;
constexpr int kIters = 4;

double per_iteration_ns(GasMode mode, int nodes) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.machine.mem_bytes_per_node = 64u << 20;
  World world(cfg);
  const auto n_rows = static_cast<std::uint32_t>(kRowsPerRank * nodes);

  Gva grid[2];
  util::Samples iter_times;
  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) {
      grid[0] = alloc_cyclic(ctx, n_rows, kRowBytes);
      grid[1] = alloc_cyclic(ctx, n_rows, kRowBytes);
    }
    co_await world.coll().barrier(ctx);

    auto row_addr = [&](int buf, std::uint32_t r) {
      return grid[buf].advanced(static_cast<std::int64_t>(r) * kRowBytes, kRowBytes);
    };
    auto mine = [&](std::uint32_t r) {
      return row_addr(0, r).home(ctx.ranks()) == ctx.rank();
    };

    // Initialize owned rows.
    std::vector<double> init(kCols, 1.0);
    for (std::uint32_t r = 0; r < n_rows; ++r) {
      if (!mine(r)) continue;
      co_await memput(ctx, row_addr(0, r), std::as_bytes(std::span(init)));
    }
    co_await world.coll().barrier(ctx);

    for (int it = 0; it < kIters; ++it) {
      const int cur = it & 1;
      const int nxt = cur ^ 1;
      const sim::Time t0 = ctx.now();
      for (std::uint32_t r = 0; r < n_rows; ++r) {
        if (!mine(r)) continue;
        const std::uint32_t up = r == 0 ? 0 : r - 1;
        const std::uint32_t dn = r == n_rows - 1 ? n_rows - 1 : r + 1;
        const auto mid = co_await memget(ctx, row_addr(cur, r), kRowBytes);
        const auto rup = co_await memget(ctx, row_addr(cur, up), kRowBytes);
        const auto rdn = co_await memget(ctx, row_addr(cur, dn), kRowBytes);
        const auto* m = reinterpret_cast<const double*>(mid.data());
        const auto* u = reinterpret_cast<const double*>(rup.data());
        const auto* d = reinterpret_cast<const double*>(rdn.data());
        std::vector<double> out(kCols);
        for (std::uint32_t c2 = 0; c2 < kCols; ++c2) {
          const double l = m[c2 == 0 ? 0 : c2 - 1];
          const double rr = m[c2 == kCols - 1 ? kCols - 1 : c2 + 1];
          out[c2] = m[c2] + 0.2 * (l + rr + u[c2] + d[c2] - 4 * m[c2]);
        }
        ctx.charge(kCols * 4);
        co_await memput(ctx, row_addr(nxt, r), std::as_bytes(std::span(out)));
      }
      co_await world.coll().barrier(ctx);
      if (ctx.rank() == 0) iter_times.add(static_cast<double>(ctx.now() - t0));
    }
  });
  return iter_times.median();
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto node_counts = opt.get_uint_list("nodes", {2, 4, 8, 16});
  opt.reject_unknown();

  print_header("R-F5", "stencil (heat2d) time per iteration, weak scaling");

  nvgas::util::Table t("time per Jacobi iteration");
  t.columns({"nodes", "grid", "pgas", "agas-sw", "agas-net", "net/pgas"});
  for (const auto n : node_counts) {
    const int nodes = static_cast<int>(n);
    const double p = per_iteration_ns(nvgas::GasMode::kPgas, nodes);
    const double s = per_iteration_ns(nvgas::GasMode::kAgasSw, nodes);
    const double net = per_iteration_ns(nvgas::GasMode::kAgasNet, nodes);
    char grid[32];
    std::snprintf(grid, sizeof grid, "%ux%u", kRowsPerRank * nodes, kCols);
    t.cell(n)
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
  return 0;
}
