// Distributed breadth-first search over a global-address-space graph —
// the irregular, parcel-heavy workload family (AM++/PBGL lineage) that
// message-driven runtimes target. The kernel is apps/workloads/bfs.hpp.
//
//   build/examples/bfs [--nodes=8] [--mode=agas-net] [--vertices=8192]
//                      [--degree=8] [--coalesce=true] [--seed=3]
//
// Relax parcels go either one per edge (--coalesce=false) or one per
// (level, destination block) with the vertex list batched
// (--coalesce=true, the AM++ message-coalescing optimization). The result
// is verified against a host-side sequential BFS.
#include <cstdio>

#include "core/nvgas.hpp"
#include "workloads/bfs.hpp"

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = opt.get_int<int>("nodes", 8);
  const std::uint32_t vertices = opt.get_uint<std::uint32_t>("vertices", 8192);
  const std::uint32_t degree = opt.get_uint<std::uint32_t>("degree", 8);
  const bool coalesce = opt.get_bool("coalesce", true);
  const std::uint64_t seed = opt.get_uint("seed", 3);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  cfg.machine.mem_bytes_per_node = 32u << 20;
  nvgas::World world(cfg);

  namespace wl = nvgas::apps::workloads;
  const auto graph = wl::Graph::random(vertices, degree, seed);
  const auto groups = (vertices + wl::kBfsGroup - 1) / wl::kBfsGroup;
  std::printf("bfs: %u vertices (deg %u), %u groups, %d nodes, %s, coalesce=%s\n",
              vertices, degree, groups, nodes, nvgas::gas::to_string(cfg.gas_mode),
              coalesce ? "on" : "off");

  const auto r = wl::run_bfs(
      world, graph, coalesce ? wl::SendMode::kAppCoalesced : wl::SendMode::kPerEdge);

  std::printf("\nlevels              : %d\n", r.levels);
  std::printf("edges relaxed       : %llu\n",
              static_cast<unsigned long long>(r.edges_relaxed));
  std::printf("parcels             : %llu (rendezvous %llu)\n",
              static_cast<unsigned long long>(world.counters().parcels_sent),
              static_cast<unsigned long long>(world.counters().parcels_rendezvous));
  std::printf("simulated time      : %s\n",
              nvgas::util::format_ns(static_cast<double>(world.now())).c_str());
  std::printf("verification        : %s (%llu mismatches)\n",
              r.mismatches == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(r.mismatches));
  return r.mismatches == 0 ? 0 : 1;
}
