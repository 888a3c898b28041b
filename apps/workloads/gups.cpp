#include "workloads/gups.hpp"

#include <algorithm>

#include "rt/collectives.hpp"
#include "util/rng.hpp"

namespace nvgas::apps::workloads {

sim::Time run_gups(World& world, const GupsSpec& spec) {
  const std::uint64_t words =
      static_cast<std::uint64_t>(spec.blocks) * kGupsBlockSize / 8;

  Gva table;  // set by rank 0 before the first barrier
  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) table = alloc_cyclic(ctx, spec.blocks, kGupsBlockSize);
    co_await world.coll().barrier(ctx);

    util::Rng rng(spec.seed_base + static_cast<std::uint64_t>(ctx.rank()));
    std::uint64_t remaining = spec.updates_per_rank;
    while (remaining > 0) {
      const std::uint64_t batch = std::min(spec.window, remaining);
      remaining -= batch;
      rt::AndGate gate(batch);
      for (std::uint64_t i = 0; i < batch; ++i) {
        const auto w = static_cast<std::int64_t>(rng.below(words));
        fetch_add_nb(ctx, table.advanced(w * 8, kGupsBlockSize), 1, gate);
        if (spec.compute_ns > 0) ctx.charge(spec.compute_ns);
      }
      co_await gate;
    }
    co_await world.coll().barrier(ctx);
  });
  return world.now();
}

}  // namespace nvgas::apps::workloads
