// S-1 (supplementary) — collective algorithm comparison: flat
// (root-counted) vs binomial tree, barrier and allreduce latency vs node
// count. Not a table from the original evaluation; supports the runtime
// substrate's fidelity (the crossover where root serialization overtakes
// tree depth).
#include "common.hpp"

namespace nvgas::bench {
namespace {

double collective_latency(rt::CollAlgo algo, int nodes, bool reduce) {
  Config cfg = Config::with_nodes(nodes, GasMode::kPgas);
  cfg.machine.mem_bytes_per_node = 1 << 20;
  cfg.coll_algo = algo;
  World world(cfg);
  constexpr int kReps = 6;
  util::Samples samples;
  world.run_spmd([&](Context& ctx) -> Fiber {
    for (int i = 0; i < kReps; ++i) {
      const sim::Time t0 = ctx.now();
      if (reduce) {
        (void)co_await world.coll().allreduce_sum(ctx, 1.0);
      } else {
        co_await world.coll().barrier(ctx);
      }
      if (ctx.rank() == 0) samples.add(static_cast<double>(ctx.now() - t0));
    }
  });
  return samples.median();
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto node_counts = opt.get_uint_list<int>("nodes", {4, 16, 64, 128, 256});
  opt.reject_unknown();

  print_header("S-1", "collective algorithms: flat vs binomial tree");

  nvgas::util::Table t("latency per collective");
  t.columns({"nodes", "barrier flat", "barrier tree", "allreduce flat",
             "allreduce tree", "tree/flat (barrier)"});
  for (const int nodes : node_counts) {
    const double bf = collective_latency(nvgas::rt::CollAlgo::kFlat, nodes, false);
    const double bt = collective_latency(nvgas::rt::CollAlgo::kTree, nodes, false);
    const double rf = collective_latency(nvgas::rt::CollAlgo::kFlat, nodes, true);
    const double rt2 = collective_latency(nvgas::rt::CollAlgo::kTree, nodes, true);
    t.cell(nodes)
        .cell(nvgas::util::format_ns(bf))
        .cell(nvgas::util::format_ns(bt))
        .cell(nvgas::util::format_ns(rf))
        .cell(nvgas::util::format_ns(rt2))
        .cell(bt / bf, 3)
        .end_row();
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: flat wins at small scale (lower depth); the tree\n"
      "wins past the point where the root's serialized fan-in dominates.\n");
  return 0;
}
