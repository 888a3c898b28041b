// 2-D heat diffusion (Jacobi) on a row-distributed global grid — the
// ghost-exchange workload class the stencil experiment (R-F5) uses.
//
//   build/examples/heat2d [--nodes=8] [--mode=agas-net] [--n=128]
//                         [--iters=20] [--hot=4.0]
//
// The N×N grid is stored one row per global block, rows distributed
// cyclically. Each iteration every rank updates its rows after pulling
// the two neighbouring (possibly remote) rows with one-sided memgets.
// Verifies that total heat is conserved under the all-reflecting update.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/nvgas.hpp"

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = static_cast<int>(opt.get_int("nodes", 8));
  const std::uint32_t n = static_cast<std::uint32_t>(opt.get_uint("n", 128));
  const int iters = static_cast<int>(opt.get_int("iters", 20));
  const double hot = opt.get_double("hot", 4.0);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  cfg.machine.mem_bytes_per_node = 64u << 20;
  nvgas::World world(cfg);

  const std::uint32_t row_bytes = n * sizeof(double);
  std::printf("heat2d: %ux%u grid, %d nodes, %s, %d iterations\n", n, n, nodes,
              nvgas::gas::to_string(cfg.gas_mode), iters);

  double heat_before = 0.0;
  double heat_after = 0.0;
  std::vector<nvgas::sim::Time> iteration_times;

  nvgas::Gva grid[2];  // double-buffered; set by rank 0 before the barrier
  world.run_spmd([&](nvgas::Context& ctx) -> nvgas::Fiber {
    if (ctx.rank() == 0) {
      grid[0] = nvgas::alloc_cyclic(ctx, n, row_bytes);
      grid[1] = nvgas::alloc_cyclic(ctx, n, row_bytes);
    }
    co_await world.coll().barrier(ctx);

    auto row_addr = [&](int buf, std::uint32_t r) {
      return grid[buf].advanced(static_cast<std::int64_t>(r) * row_bytes,
                                row_bytes);
    };
    auto my_row = [&](std::uint32_t r) {
      return row_addr(0, r).home(ctx.ranks()) == ctx.rank();
    };

    // Initialize: a hot square in the middle, zero elsewhere.
    for (std::uint32_t r = 0; r < n; ++r) {
      if (!my_row(r)) continue;
      std::vector<double> row(n, 0.0);
      if (r >= n / 4 && r < 3 * n / 4) {
        for (std::uint32_t c2 = n / 4; c2 < 3 * n / 4; ++c2) row[c2] = hot;
      }
      auto bytes = std::as_bytes(std::span(row));
      co_await nvgas::memput(ctx, row_addr(0, r), bytes);
      co_await nvgas::memput(ctx, row_addr(1, r), bytes);
    }
    co_await world.coll().barrier(ctx);

    // Total heat before (rank 0 sums every row).
    if (ctx.rank() == 0) {
      for (std::uint32_t r = 0; r < n; ++r) {
        const auto raw = co_await nvgas::memget(ctx, row_addr(0, r), row_bytes);
        const auto* vals = reinterpret_cast<const double*>(raw.data());
        for (std::uint32_t c2 = 0; c2 < n; ++c2) heat_before += vals[c2];
      }
    }
    co_await world.coll().barrier(ctx);

    for (int it = 0; it < iters; ++it) {
      const int cur = it & 1;
      const int nxt = cur ^ 1;
      const auto iter_start = ctx.now();

      for (std::uint32_t r = 0; r < n; ++r) {
        if (!my_row(r)) continue;
        // Pull this row and its neighbours (reflecting boundaries).
        const std::uint32_t up = r == 0 ? 0 : r - 1;
        const std::uint32_t dn = r == n - 1 ? n - 1 : r + 1;
        const auto mid_raw = co_await nvgas::memget(ctx, row_addr(cur, r), row_bytes);
        const auto up_raw = co_await nvgas::memget(ctx, row_addr(cur, up), row_bytes);
        const auto dn_raw = co_await nvgas::memget(ctx, row_addr(cur, dn), row_bytes);
        const auto* mid = reinterpret_cast<const double*>(mid_raw.data());
        const auto* rup = reinterpret_cast<const double*>(up_raw.data());
        const auto* rdn = reinterpret_cast<const double*>(dn_raw.data());

        std::vector<double> out(n);
        for (std::uint32_t c2 = 0; c2 < n; ++c2) {
          const double left = mid[c2 == 0 ? 0 : c2 - 1];
          const double right = mid[c2 == n - 1 ? n - 1 : c2 + 1];
          // Conservative reflecting-boundary diffusion.
          out[c2] = mid[c2] + 0.2 * (left + right + rup[c2] + rdn[c2] - 4 * mid[c2]);
        }
        ctx.charge(n * 4);  // ~4 ns per cell of compute
        co_await nvgas::memput(ctx, row_addr(nxt, r),
                               std::as_bytes(std::span(out)));
      }
      co_await world.coll().barrier(ctx);
      if (ctx.rank() == 0) iteration_times.push_back(ctx.now() - iter_start);
    }

    if (ctx.rank() == 0) {
      const int last = iters & 1;
      for (std::uint32_t r = 0; r < n; ++r) {
        const auto raw = co_await nvgas::memget(ctx, row_addr(last, r), row_bytes);
        const auto* vals = reinterpret_cast<const double*>(raw.data());
        for (std::uint32_t c2 = 0; c2 < n; ++c2) heat_after += vals[c2];
      }
    }
  });

  double per_iter = 0.0;
  for (auto t : iteration_times) per_iter += static_cast<double>(t);
  per_iter /= static_cast<double>(iteration_times.empty() ? 1 : iteration_times.size());

  std::printf("\nheat before/after  : %.3f / %.3f (conservation error %.2e)\n",
              heat_before, heat_after,
              std::abs(heat_after - heat_before) / heat_before);
  std::printf("time per iteration : %s (simulated)\n",
              nvgas::util::format_ns(per_iter).c_str());
  std::printf("total messages     : %llu\n",
              static_cast<unsigned long long>(world.counters().messages_sent));
  return std::abs(heat_after - heat_before) / heat_before < 1e-9 ? 0 : 1;
}
