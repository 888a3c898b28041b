// Distributed breadth-first search over a global-address-space graph
// (S-3): the irregular, parcel-heavy workload family (AM++/PBGL lineage)
// that message-driven runtimes target. Shared by examples/bfs and
// bench_bfs.
//
// Vertices are grouped into GAS blocks (kBfsGroup vertices per block,
// homes cyclic); depth labels live in global memory. Each level, every
// rank scans the frontier vertices it discovered and sends relax parcels
// to the owner blocks of their neighbours through the apply trampoline.
// Level completion uses per-sender acknowledgement gates; global
// termination uses an allreduce of newly discovered counts.
#pragma once

#include <cstdint>
#include <vector>

#include "core/world.hpp"

namespace nvgas::apps::workloads {

inline constexpr std::uint32_t kBfsGroup = 256;  // vertices per GAS block

struct Graph {
  std::uint32_t vertices = 0;
  std::vector<std::vector<std::uint32_t>> adj;

  // A ring (so every vertex is reachable from 0) plus `degree - 1`
  // uniformly random out-edges per vertex.
  static Graph random(std::uint32_t n, std::uint32_t degree, std::uint64_t seed);

  // Host-side reference: depth of every vertex from `root`, ~0u if
  // unreachable.
  [[nodiscard]] std::vector<std::uint32_t> sequential_bfs(std::uint32_t root) const;
};

enum class SendMode {
  kAppCoalesced,      // one parcel per (level, destination block)
  kRuntimeCoalesced,  // one parcel per edge, batched by an rt::Coalescer
  kPerEdge,           // one parcel per edge
};

struct BfsResult {
  int levels = 0;
  std::uint64_t edges_relaxed = 0;
  std::uint64_t mismatches = 0;  // vertices whose depth differs from the reference
};

// BFS from vertex 0 as one SPMD program on `world`, then check every
// vertex's depth against Graph::sequential_bfs.
BfsResult run_bfs(World& world, const Graph& graph, SendMode send_mode);

}  // namespace nvgas::apps::workloads
