#include "workloads/stencil.hpp"

#include <cmath>
#include <cstring>
#include <span>

#include "rt/collectives.hpp"

namespace nvgas::apps::workloads {

namespace {
// A fetched row as doubles (copied: the bytes hold no double objects).
std::vector<double> to_row(const std::vector<std::byte>& raw) {
  std::vector<double> row(raw.size() / sizeof(double));
  std::memcpy(row.data(), raw.data(), row.size() * sizeof(double));
  return row;
}
}  // namespace

double StencilResult::conservation_error() const {
  return std::abs(heat_after - heat_before) / heat_before;
}

StencilResult run_stencil(World& world, const StencilSpec& spec) {
  const std::uint32_t rows = spec.rows;
  const std::uint32_t cols = spec.cols;
  const std::uint32_t row_bytes = cols * sizeof(double);

  auto initial_row = [&](std::uint32_t r) {
    std::vector<double> row(cols, 0.0);
    if (r >= rows / 4 && r < 3 * rows / 4) {
      for (std::uint32_t c = cols / 4; c < 3 * cols / 4; ++c) row[c] = spec.hot;
    }
    return row;
  };

  StencilResult out;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (const double v : initial_row(r)) out.heat_before += v;
  }

  Gva grid[2];  // set by rank 0 before the first barrier
  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) {
      grid[0] = alloc_cyclic(ctx, rows, row_bytes);
      grid[1] = alloc_cyclic(ctx, rows, row_bytes);
    }
    co_await world.coll().barrier(ctx);

    auto row_addr = [&](int buf, std::uint32_t r) {
      return grid[buf].advanced(static_cast<std::int64_t>(r) * row_bytes, row_bytes);
    };
    auto mine = [&](std::uint32_t r) {
      return row_addr(0, r).home(ctx.ranks()) == ctx.rank();
    };

    for (std::uint32_t r = 0; r < rows; ++r) {
      if (!mine(r)) continue;
      const std::vector<double> init = initial_row(r);
      co_await memput(ctx, row_addr(0, r), std::as_bytes(std::span(init)));
    }
    co_await world.coll().barrier(ctx);

    for (int it = 0; it < spec.iters; ++it) {
      const int cur = it & 1;
      const int nxt = cur ^ 1;
      const sim::Time t0 = ctx.now();
      for (std::uint32_t r = 0; r < rows; ++r) {
        if (!mine(r)) continue;
        const std::uint32_t up = r == 0 ? 0 : r - 1;
        const std::uint32_t dn = r == rows - 1 ? rows - 1 : r + 1;
        const auto m = to_row(co_await memget(ctx, row_addr(cur, r), row_bytes));
        const auto u = to_row(co_await memget(ctx, row_addr(cur, up), row_bytes));
        const auto d = to_row(co_await memget(ctx, row_addr(cur, dn), row_bytes));
        std::vector<double> next(cols);
        for (std::uint32_t c = 0; c < cols; ++c) {
          const double l = m[c == 0 ? 0 : c - 1];
          const double rr = m[c == cols - 1 ? cols - 1 : c + 1];
          next[c] = m[c] + 0.2 * (l + rr + u[c] + d[c] - 4 * m[c]);
        }
        ctx.charge(cols * 4);  // ~4 ns per cell of compute
        co_await memput(ctx, row_addr(nxt, r), std::as_bytes(std::span(next)));
      }
      co_await world.coll().barrier(ctx);
      if (ctx.rank() == 0) out.iteration_ns.push_back(ctx.now() - t0);
    }

    if (ctx.rank() == 0) {
      for (std::uint32_t r = 0; r < rows; ++r) {
        const auto row = to_row(co_await memget(ctx, row_addr(spec.iters & 1, r), row_bytes));
        for (const double v : row) out.heat_after += v;
      }
    }
  });
  return out;
}

}  // namespace nvgas::apps::workloads
