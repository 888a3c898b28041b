// Distributed breadth-first search over a global-address-space graph —
// the irregular, parcel-heavy workload family (AM++/PBGL lineage) that
// message-driven runtimes target.
//
//   build/examples/bfs [--nodes=8] [--mode=agas-net] [--vertices=8192]
//                      [--degree=8] [--coalesce=true] [--seed=3]
//
// Vertices are grouped into GAS blocks (256 vertices per block, homes
// cyclic); depth labels live in global memory. Each BFS level, every rank
// relaxes the frontier vertices it owns and sends relax parcels to the
// owner blocks of remote neighbours — either one parcel per edge
// (--coalesce=false) or one per (level, destination block) with the
// vertex list batched (--coalesce=true, the AM++ message-coalescing
// optimization). Level completion uses per-sender acknowledgement gates;
// global termination uses an allreduce of newly-discovered counts.
//
// The result is verified against a host-side sequential BFS.
#include <cstdio>
#include <queue>
#include <vector>

#include "core/nvgas.hpp"

namespace {

constexpr std::uint32_t kGroup = 256;  // vertices per GAS block

struct Graph {
  std::uint32_t vertices = 0;
  std::vector<std::vector<std::uint32_t>> adj;

  static Graph random(std::uint32_t n, std::uint32_t degree, std::uint64_t seed) {
    Graph g;
    g.vertices = n;
    g.adj.resize(n);
    nvgas::util::Rng rng(seed);
    for (std::uint32_t v = 0; v < n; ++v) {
      g.adj[v].push_back((v + 1) % n);  // ring keeps everything reachable
      for (std::uint32_t d = 1; d < degree; ++d) {
        g.adj[v].push_back(static_cast<std::uint32_t>(rng.below(n)));
      }
    }
    return g;
  }

  [[nodiscard]] std::vector<std::uint32_t> sequential_bfs(std::uint32_t root) const {
    std::vector<std::uint32_t> depth(vertices, ~0u);
    std::queue<std::uint32_t> q;
    depth[root] = 0;
    q.push(root);
    while (!q.empty()) {
      const auto u = q.front();
      q.pop();
      for (const auto v : adj[u]) {
        if (depth[v] == ~0u) {
          depth[v] = depth[u] + 1;
          q.push(v);
        }
      }
    }
    return depth;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = static_cast<int>(opt.get_int("nodes", 8));
  const std::uint32_t vertices =
      static_cast<std::uint32_t>(opt.get_uint("vertices", 8192));
  const std::uint32_t degree = static_cast<std::uint32_t>(opt.get_uint("degree", 8));
  const bool coalesce = opt.get_bool("coalesce", true);
  const std::uint64_t seed = opt.get_uint("seed", 3);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  cfg.machine.mem_bytes_per_node = 32u << 20;
  nvgas::World world(cfg);

  const Graph graph = Graph::random(vertices, degree, seed);
  const auto groups = static_cast<std::uint32_t>((vertices + kGroup - 1) / kGroup);
  std::printf("bfs: %u vertices (deg %u), %u groups, %d nodes, %s, coalesce=%s\n",
              vertices, degree, groups, nodes, nvgas::gas::to_string(cfg.gas_mode),
              coalesce ? "on" : "off");

  // Distributed state.
  nvgas::Gva depth_base;
  std::vector<std::vector<std::uint32_t>> next_frontier(
      static_cast<std::size_t>(nodes));
  std::uint64_t edges_relaxed = 0;
  int levels = 0;

  auto group_of = [&](std::uint32_t v) { return v / kGroup; };
  auto group_gva = [&](std::uint32_t g) {
    return depth_base.advanced(static_cast<std::int64_t>(g) * kGroup * 8,
                               kGroup * 8);
  };
  auto owner_rank_of_group = [&](std::uint32_t g) {
    return world.gas().owner_of(group_gva(g)).first;
  };
  auto depth_slot = [&](std::uint32_t v) {
    const auto [owner, lva] = world.gas().owner_of(group_gva(group_of(v)));
    return std::pair<int, nvgas::sim::Lva>(owner, lva + (v % kGroup) * 8);
  };

  // Relax handler: runs at the owner of the destination group. Payload:
  // [ack LcoRef][u32 level+1][u32 count][vertex ids...].
  const auto relax = world.runtime().actions().add(
      "bfs.relax", [&](nvgas::Context& c, int, nvgas::util::Buffer args) {
        auto r = args.reader();
        const auto ack = r.get<nvgas::rt::LcoRef>();
        const auto d = r.get<std::uint32_t>();
        const auto count = r.get<std::uint32_t>();
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto v = r.get<std::uint32_t>();
          const auto [owner, lva] = depth_slot(v);
          NVGAS_CHECK_MSG(owner == c.rank(), "relax parcel at wrong owner");
          auto& mem = world.fabric().mem(owner);
          c.charge(20);  // per-vertex relax work
          ++edges_relaxed;
          if (mem.load<std::uint64_t>(lva) == ~0ull) {
            mem.store<std::uint64_t>(lva, d);
            next_frontier[static_cast<std::size_t>(c.rank())].push_back(v);
          }
        }
        c.set_lco(ack);
      });

  world.run_spmd([&](nvgas::Context& ctx) -> nvgas::Fiber {
    if (ctx.rank() == 0) {
      depth_base = nvgas::alloc_cyclic(ctx, groups, kGroup * 8);
    }
    co_await world.coll().barrier(ctx);

    // Initialize owned groups to "unvisited".
    for (std::uint32_t g = 0; g < groups; ++g) {
      if (owner_rank_of_group(g) != ctx.rank()) continue;
      std::vector<std::uint64_t> unvisited(kGroup, ~0ull);
      co_await nvgas::memput(ctx, group_gva(g),
                             std::as_bytes(std::span(unvisited)));
    }
    co_await world.coll().barrier(ctx);

    // Seed the root.
    std::vector<std::uint32_t> frontier;
    if (owner_rank_of_group(group_of(0)) == ctx.rank()) {
      const auto [owner, lva] = depth_slot(0);
      world.fabric().mem(owner).store<std::uint64_t>(lva, 0);
      frontier.push_back(0);
    }

    for (std::uint32_t level = 0;; ++level) {
      // Bucket my frontier's out-edges by destination group.
      std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> buckets;
      for (const auto u : frontier) {
        ctx.charge(30);  // frontier scan work
        for (const auto v : graph.adj[u]) {
          buckets[group_of(v)].push_back(v);
        }
      }

      // Send relax parcels; the ack gate counts parcel completions.
      std::uint64_t to_send = 0;
      for (const auto& [g, verts] : buckets) {
        to_send += coalesce ? 1 : verts.size();
      }
      nvgas::rt::AndGate acks(std::max<std::uint64_t>(1, to_send));
      if (to_send == 0) acks.arrive(ctx.now());
      const nvgas::rt::LcoRef aref = ctx.make_ref(acks);

      for (const auto& [g, verts] : buckets) {
        if (coalesce) {
          nvgas::util::Buffer payload;
          payload.put<nvgas::rt::LcoRef>(aref);
          payload.put<std::uint32_t>(level + 1);
          payload.put<std::uint32_t>(static_cast<std::uint32_t>(verts.size()));
          for (const auto v : verts) payload.put<std::uint32_t>(v);
          co_await nvgas::apply(ctx, group_gva(g), relax, std::move(payload));
        } else {
          for (const auto v : verts) {
            nvgas::util::Buffer payload;
            payload.put<nvgas::rt::LcoRef>(aref);
            payload.put<std::uint32_t>(level + 1);
            payload.put<std::uint32_t>(1);
            payload.put<std::uint32_t>(v);
            co_await nvgas::apply(ctx, group_gva(g), relax, std::move(payload));
          }
        }
      }
      co_await acks;
      ctx.release_ref(aref);
      co_await world.coll().barrier(ctx);

      // Collect the vertices discovered at my rank this level.
      frontier = std::move(next_frontier[static_cast<std::size_t>(ctx.rank())]);
      next_frontier[static_cast<std::size_t>(ctx.rank())].clear();
      const double discovered = co_await world.coll().allreduce_sum(
          ctx, static_cast<double>(frontier.size()));
      if (ctx.rank() == 0) levels = static_cast<int>(level) + 1;
      if (discovered == 0.0) break;
    }
  });

  // Verify against the sequential reference.
  const auto reference = graph.sequential_bfs(0);
  std::uint64_t mismatches = 0;
  for (std::uint32_t v = 0; v < vertices; ++v) {
    const auto [owner, lva] = depth_slot(v);
    const auto d = world.fabric().mem(owner).load<std::uint64_t>(lva);
    const auto expect =
        reference[v] == ~0u ? ~0ull : static_cast<std::uint64_t>(reference[v]);
    if (d != expect) ++mismatches;
  }

  std::printf("\nlevels              : %d\n", levels);
  std::printf("edges relaxed       : %llu\n",
              static_cast<unsigned long long>(edges_relaxed));
  std::printf("parcels             : %llu (rendezvous %llu)\n",
              static_cast<unsigned long long>(world.counters().parcels_sent),
              static_cast<unsigned long long>(world.counters().parcels_rendezvous));
  std::printf("simulated time      : %s\n",
              nvgas::util::format_ns(static_cast<double>(world.now())).c_str());
  std::printf("verification        : %s (%llu mismatches)\n",
              mismatches == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(mismatches));
  return mismatches == 0 ? 0 : 1;
}
