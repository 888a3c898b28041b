#include "workloads/bfs.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <span>

#include "rt/coalescer.hpp"
#include "rt/collectives.hpp"
#include "util/rng.hpp"

namespace nvgas::apps::workloads {

Graph Graph::random(std::uint32_t n, std::uint32_t degree, std::uint64_t seed) {
  Graph g;
  g.vertices = n;
  g.adj.resize(n);
  util::Rng rng(seed);
  for (std::uint32_t v = 0; v < n; ++v) {
    g.adj[v].push_back((v + 1) % n);
    for (std::uint32_t d = 1; d < degree; ++d) {
      g.adj[v].push_back(static_cast<std::uint32_t>(rng.below(n)));
    }
  }
  return g;
}

std::vector<std::uint32_t> Graph::sequential_bfs(std::uint32_t root) const {
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

BfsResult run_bfs(World& world, const Graph& graph, SendMode send_mode) {
  const auto groups =
      static_cast<std::uint32_t>((graph.vertices + kBfsGroup - 1) / kBfsGroup);

  Gva depth_base;  // set by rank 0 before the first barrier
  std::vector<std::vector<std::uint32_t>> next_frontier(
      static_cast<std::size_t>(world.ranks()));
  BfsResult out;

  auto group_gva = [&](std::uint32_t g) {
    return depth_base.advanced(static_cast<std::int64_t>(g) * kBfsGroup * 8,
                               kBfsGroup * 8);
  };
  auto depth_slot = [&](std::uint32_t v) {
    const auto [owner, lva] = world.gas().owner_of(group_gva(v / kBfsGroup));
    return std::pair<int, sim::Lva>(owner, lva + (v % kBfsGroup) * 8);
  };

  std::optional<rt::Coalescer> coalescer;
  if (send_mode == SendMode::kRuntimeCoalesced) coalescer.emplace(world.runtime());

  // Relax handler: runs at the owner of the destination group. Payload:
  // [ack LcoRef][u32 level+1][u32 count][vertex ids...].
  const auto relax = world.runtime().actions().add(
      "bfs.relax", [&](Context& c, int, util::Buffer args) {
        auto r = args.reader();
        const auto ack = r.get<rt::LcoRef>();
        const auto d = r.get<std::uint32_t>();
        const auto count = r.get<std::uint32_t>();
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto v = r.get<std::uint32_t>();
          const auto [owner, lva] = depth_slot(v);
          NVGAS_CHECK_MSG(owner == c.rank(), "relax parcel at wrong owner");
          auto& mem = world.fabric().mem(owner);
          c.charge(20);  // per-vertex relax work
          ++out.edges_relaxed;
          if (mem.load<std::uint64_t>(lva) == ~0ull) {
            mem.store<std::uint64_t>(lva, d);
            next_frontier[static_cast<std::size_t>(c.rank())].push_back(v);
          }
        }
        if (coalescer && ack.node != c.rank()) {
          // Batch the acknowledgement traffic too: the coalescer handles
          // any action, including the runtime's built-in lco-set.
          util::Buffer id;
          id.put<std::uint64_t>(ack.id);
          coalescer->send(c, ack.node, world.runtime().lco_set_action(),
                          std::move(id));
        } else {
          c.set_lco(ack);
        }
      });

  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) depth_base = alloc_cyclic(ctx, groups, kBfsGroup * 8);
    co_await world.coll().barrier(ctx);

    // Initialize owned groups to "unvisited".
    for (std::uint32_t g = 0; g < groups; ++g) {
      if (world.gas().owner_of(group_gva(g)).first != ctx.rank()) continue;
      std::vector<std::uint64_t> unvisited(kBfsGroup, ~0ull);
      co_await memput(ctx, group_gva(g), std::as_bytes(std::span(unvisited)));
    }
    co_await world.coll().barrier(ctx);

    // Seed the root.
    std::vector<std::uint32_t> frontier;
    if (world.gas().owner_of(group_gva(0)).first == ctx.rank()) {
      const auto [owner, lva] = depth_slot(0);
      world.fabric().mem(owner).store<std::uint64_t>(lva, 0);
      frontier.push_back(0);
    }

    for (std::uint32_t level = 0;; ++level) {
      // Bucket my frontier's out-edges by destination group; parcels go
      // out in ascending group order.
      std::map<std::uint32_t, std::vector<std::uint32_t>> buckets;
      for (const auto u : frontier) {
        ctx.charge(30);  // frontier scan work
        for (const auto v : graph.adj[u]) buckets[v / kBfsGroup].push_back(v);
      }

      // Send relax parcels; the ack gate counts parcel completions.
      std::uint64_t to_send = 0;
      for (const auto& [g, verts] : buckets) {
        to_send += send_mode == SendMode::kAppCoalesced ? 1 : verts.size();
      }
      rt::AndGate acks(std::max<std::uint64_t>(1, to_send));
      if (to_send == 0) acks.arrive(ctx.now());
      const rt::LcoRef aref = ctx.make_ref(acks);

      for (const auto& [g, verts] : buckets) {
        if (send_mode == SendMode::kAppCoalesced) {
          util::Buffer payload;
          payload.put<rt::LcoRef>(aref);
          payload.put<std::uint32_t>(level + 1);
          payload.put<std::uint32_t>(static_cast<std::uint32_t>(verts.size()));
          for (const auto v : verts) payload.put<std::uint32_t>(v);
          co_await apply(ctx, group_gva(g), relax, std::move(payload));
          continue;
        }
        for (const auto v : verts) {
          util::Buffer payload;
          payload.put<rt::LcoRef>(aref);
          payload.put<std::uint32_t>(level + 1);
          payload.put<std::uint32_t>(1);
          payload.put<std::uint32_t>(v);
          if (coalescer) {
            // Generic runtime batching: wrap in the apply trampoline and
            // let the coalescer pack per-destination parcels.
            coalescer->send(ctx, world.gas().owner_of(group_gva(g)).first,
                            world.runtime().apply_action(),
                            encode_apply(group_gva(g), relax, std::move(payload)));
          } else {
            co_await apply(ctx, group_gva(g), relax, std::move(payload));
          }
        }
      }
      if (coalescer) coalescer->flush_all(ctx);
      co_await acks;
      ctx.release_ref(aref);
      co_await world.coll().barrier(ctx);

      // Collect the vertices discovered at my rank this level.
      frontier = std::move(next_frontier[static_cast<std::size_t>(ctx.rank())]);
      next_frontier[static_cast<std::size_t>(ctx.rank())].clear();
      const double discovered = co_await world.coll().allreduce_sum(
          ctx, static_cast<double>(frontier.size()));
      if (ctx.rank() == 0) out.levels = static_cast<int>(level) + 1;
      if (discovered == 0.0) break;
    }
  });

  const auto reference = graph.sequential_bfs(0);
  for (std::uint32_t v = 0; v < graph.vertices; ++v) {
    const auto [owner, lva] = depth_slot(v);
    const auto d = world.fabric().mem(owner).load<std::uint64_t>(lva);
    const auto expect =
        reference[v] == ~0u ? ~0ull : static_cast<std::uint64_t>(reference[v]);
    if (d != expect) ++out.mismatches;
  }
  return out;
}

}  // namespace nvgas::apps::workloads
