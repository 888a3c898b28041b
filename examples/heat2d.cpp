// 2-D heat diffusion (Jacobi) on a row-distributed global grid — the
// ghost-exchange workload class the stencil experiment (R-F5) uses.
//
//   build/examples/heat2d [--nodes=8] [--mode=agas-net] [--n=128]
//                         [--iters=20] [--hot=4.0]
//
// The N×N grid is stored one row per global block, rows distributed
// cyclically. Each iteration every rank updates its rows after pulling
// the two neighbouring (possibly remote) rows with one-sided memgets
// (the kernel is apps/workloads/stencil.hpp). Verifies that total heat
// is conserved under the all-reflecting update.
#include <cstdio>

#include "core/nvgas.hpp"
#include "workloads/stencil.hpp"

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = opt.get_int<int>("nodes", 8);
  const std::uint32_t n = opt.get_uint<std::uint32_t>("n", 128);
  const int iters = opt.get_int<int>("iters", 20);
  const double hot = opt.get_double("hot", 4.0);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  cfg.machine.mem_bytes_per_node = 64u << 20;
  nvgas::World world(cfg);

  std::printf("heat2d: %ux%u grid, %d nodes, %s, %d iterations\n", n, n, nodes,
              nvgas::gas::to_string(cfg.gas_mode), iters);

  const auto r = nvgas::apps::workloads::run_stencil(
      world, {.rows = n, .cols = n, .iters = iters, .hot = hot});

  double per_iter = 0.0;
  for (auto t : r.iteration_ns) per_iter += static_cast<double>(t);
  per_iter /= static_cast<double>(r.iteration_ns.empty() ? 1 : r.iteration_ns.size());

  std::printf("\nheat before/after  : %.3f / %.3f (conservation error %.2e)\n",
              r.heat_before, r.heat_after, r.conservation_error());
  std::printf("time per iteration : %s (simulated)\n",
              nvgas::util::format_ns(per_iter).c_str());
  std::printf("total messages     : %llu\n",
              static_cast<unsigned long long>(world.counters().messages_sent));
  return r.conservation_error() < 1e-9 ? 0 : 1;
}
