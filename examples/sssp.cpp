// Asynchronous single-source shortest paths — chaotic relaxation with
// distributed termination detection. SSSP on message-driven runtimes is
// the flagship workload of the literature around this system (distributed
// control, no global synchronization): relaxations propagate as parcels
// the moment a shorter distance is discovered, in any order, and the
// computation is over exactly when the quiescence detector says no relax
// message is left anywhere.
//
//   build/examples/sssp [--nodes=8] [--mode=agas-net] [--vertices=4096]
//                       [--degree=6] [--seed=11]
//
// Distances live in GAS blocks (one u64 per vertex, groups of 256);
// relax parcels are coalesced per destination group per handler turn.
// Verified against host-side Dijkstra.
#include <cstdio>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/nvgas.hpp"
#include "rt/termination.hpp"

namespace {

constexpr std::uint32_t kGroup = 256;

struct WGraph {
  std::uint32_t vertices;
  // adjacency: (neighbour, weight)
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> adj;

  static WGraph random(std::uint32_t n, std::uint32_t degree, std::uint64_t seed) {
    WGraph g{n, {}};
    g.adj.resize(n);
    nvgas::util::Rng rng(seed);
    for (std::uint32_t v = 0; v < n; ++v) {
      g.adj[v].emplace_back((v + 1) % n,
                            1 + static_cast<std::uint32_t>(rng.below(10)));
      for (std::uint32_t d = 1; d < degree; ++d) {
        g.adj[v].emplace_back(static_cast<std::uint32_t>(rng.below(n)),
                              1 + static_cast<std::uint32_t>(rng.below(10)));
      }
    }
    return g;
  }

  [[nodiscard]] std::vector<std::uint64_t> dijkstra(std::uint32_t root) const {
    std::vector<std::uint64_t> dist(vertices, ~0ull);
    using Item = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[root] = 0;
    pq.emplace(0, root);
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d != dist[u]) continue;
      for (const auto& [v, w] : adj[u]) {
        if (d + w < dist[v]) {
          dist[v] = d + w;
          pq.emplace(dist[v], v);
        }
      }
    }
    return dist;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = opt.get_int<int>("nodes", 8);
  const auto vertices = opt.get_uint<std::uint32_t>("vertices", 4096);
  const auto degree = opt.get_uint<std::uint32_t>("degree", 6);
  const std::uint64_t seed = opt.get_uint("seed", 11);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  cfg.machine.mem_bytes_per_node = 32u << 20;
  nvgas::World world(cfg);

  const WGraph graph = WGraph::random(vertices, degree, seed);
  const auto groups = static_cast<std::uint32_t>((vertices + kGroup - 1) / kGroup);
  std::printf("sssp: %u vertices (deg %u), %d nodes, %s — chaotic relaxation\n",
              vertices, degree, nodes, nvgas::gas::to_string(cfg.gas_mode));

  nvgas::Gva dist_base;
  nvgas::rt::QuiescenceDetector qd(world.runtime(), 25'000);
  std::uint64_t relaxations = 0;
  std::uint64_t improvements = 0;

  auto group_gva = [&](std::uint32_t g) {
    return dist_base.advanced(static_cast<std::int64_t>(g) * kGroup * 8,
                              kGroup * 8);
  };
  auto dist_slot = [&](std::uint32_t v) {
    const auto [owner, lva] = world.gas().owner_of(group_gva(v / kGroup));
    return std::pair<int, nvgas::sim::Lva>(owner, lva + (v % kGroup) * 8);
  };

  // Chaotic relax handler. Payload: [count][(vertex, candidate) pairs].
  // Improvements immediately fan out further relax parcels, coalesced per
  // destination group for this handler turn.
  nvgas::rt::ActionId relax{};
  relax = world.runtime().actions().add(
      "sssp.relax", [&](nvgas::Context& c, int, nvgas::util::Buffer args) {
        qd.note_processed(c.rank());
        auto r = args.reader();
        const auto count = r.get<std::uint32_t>();
        std::unordered_map<std::uint32_t,
                           std::vector<std::pair<std::uint32_t, std::uint64_t>>>
            out;
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto v = r.get<std::uint32_t>();
          const auto cand = r.get<std::uint64_t>();
          const auto [owner, lva] = dist_slot(v);
          NVGAS_CHECK(owner == c.rank());
          auto& mem = world.fabric().mem(owner);
          c.charge(25);
          ++relaxations;
          if (cand < mem.load<std::uint64_t>(lva)) {
            mem.store<std::uint64_t>(lva, cand);
            ++improvements;
            for (const auto& [w, weight] : graph.adj[v]) {
              out[w / kGroup].emplace_back(w, cand + weight);
            }
          }
        }
        for (auto& [g, items] : out) {
          nvgas::util::Buffer payload;
          payload.put<std::uint32_t>(static_cast<std::uint32_t>(items.size()));
          for (const auto& [w, cand] : items) {
            payload.put<std::uint32_t>(w);
            payload.put<std::uint64_t>(cand);
          }
          qd.note_sent(c.rank());
          // Fire-and-forget: resolve via the trampoline at the receiver.
          nvgas::util::Buffer tramp;
          tramp.put<std::uint64_t>(group_gva(g).bits());
          tramp.put<nvgas::rt::ActionId>(relax);
          tramp.append_raw(payload.bytes());
          c.send(world.gas().owner_of(group_gva(g)).first,
                 world.runtime().apply_action(), std::move(tramp));
        }
      });

  world.run_spmd([&](nvgas::Context& ctx) -> nvgas::Fiber {
    if (ctx.rank() == 0) dist_base = nvgas::alloc_cyclic(ctx, groups, kGroup * 8);
    co_await world.coll().barrier(ctx);
    for (std::uint32_t g = 0; g < groups; ++g) {
      if (world.gas().owner_of(group_gva(g)).first != ctx.rank()) continue;
      std::vector<std::uint64_t> inf(kGroup, ~0ull);
      co_await nvgas::memput(ctx, group_gva(g), std::as_bytes(std::span(inf)));
    }
    co_await world.coll().barrier(ctx);

    if (ctx.rank() == 0) {
      // Seed: relax(root, 0).
      nvgas::util::Buffer payload;
      payload.put<std::uint32_t>(1);
      payload.put<std::uint32_t>(0);
      payload.put<std::uint64_t>(0);
      qd.note_sent(0);
      co_await nvgas::apply(ctx, group_gva(0), relax, std::move(payload));
    }
    co_await qd.wait(ctx);
  });

  // Verify.
  const auto reference = graph.dijkstra(0);
  std::uint64_t mismatches = 0;
  for (std::uint32_t v = 0; v < vertices; ++v) {
    const auto [owner, lva] = dist_slot(v);
    if (world.fabric().mem(owner).load<std::uint64_t>(lva) != reference[v]) {
      ++mismatches;
    }
  }

  std::printf("\nrelaxations         : %llu (%llu improvements)\n",
              static_cast<unsigned long long>(relaxations),
              static_cast<unsigned long long>(improvements));
  std::printf("detector rounds     : %llu\n",
              static_cast<unsigned long long>(qd.rounds()));
  std::printf("simulated time      : %s\n",
              nvgas::util::format_ns(static_cast<double>(world.now())).c_str());
  std::printf("verification        : %s (%llu mismatches)\n",
              mismatches == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(mismatches));
  return mismatches == 0 ? 0 : 1;
}
