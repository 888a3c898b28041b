// 2-D heat diffusion by Jacobi iteration on a row-distributed global
// grid (R-F5): the ghost-exchange workload class. Shared by
// examples/heat2d and bench_stencil.
//
// The grid is stored one row per GAS block, rows cyclic over the ranks,
// double-buffered. Each iteration every rank updates its rows after
// pulling each row and its two neighbours (possibly remote) with
// one-sided memgets; boundaries reflect, so total heat is conserved.
#pragma once

#include <cstdint>
#include <vector>

#include "core/world.hpp"

namespace nvgas::apps::workloads {

struct StencilSpec {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  int iters = 0;
  double hot = 4.0;  // the middle half of the grid starts at this; the rest at 0
};

struct StencilResult {
  std::vector<sim::Time> iteration_ns;  // each iteration, barrier to barrier, on rank 0
  double heat_before = 0;  // sum of the initial values, computed host-side
  double heat_after = 0;   // sum of the final grid, read back by rank 0
  [[nodiscard]] double conservation_error() const;  // relative
};

// Run the kernel as one SPMD program on `world`: rank 0 allocates both
// buffers, every rank writes its rows of buffer 0, then `iters` timed
// iterations each end in a barrier. The final read-back is untimed.
StencilResult run_stencil(World& world, const StencilSpec& spec);

}  // namespace nvgas::apps::workloads
