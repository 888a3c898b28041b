// S-3 (supplementary) — irregular application: distributed BFS traversal
// time across the address-space managers, with and without parcel
// coalescing (the AM++-style message batching the surrounding literature
// leans on for this workload class).
#include <queue>
#include <unordered_map>

#include "common.hpp"
#include "rt/coalescer.hpp"

namespace nvgas::bench {
namespace {

constexpr std::uint32_t kGroup = 256;

struct Graph {
  std::uint32_t vertices;
  std::vector<std::vector<std::uint32_t>> adj;
};

Graph make_graph(std::uint32_t n, std::uint32_t degree, std::uint64_t seed) {
  Graph g{n, {}};
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

struct BfsResult {
  sim::Time time = 0;
  std::uint64_t parcels = 0;
  bool ok = false;
};

enum class SendMode { kAppCoalesced, kRuntimeCoalesced, kPerEdge };

BfsResult run_bfs(GasMode mode, const Graph& graph, int nodes, SendMode send_mode) {
  Config cfg = Config::with_nodes(nodes, mode);
  cfg.machine.mem_bytes_per_node = 32u << 20;
  World world(cfg);
  const auto groups =
      static_cast<std::uint32_t>((graph.vertices + kGroup - 1) / kGroup);

  Gva depth_base;
  std::vector<std::vector<std::uint32_t>> next_frontier(
      static_cast<std::size_t>(nodes));
  rt::Coalescer coalescer(world.runtime());

  auto group_gva = [&](std::uint32_t g) {
    return depth_base.advanced(static_cast<std::int64_t>(g) * kGroup * 8,
                               kGroup * 8);
  };
  auto depth_slot = [&](std::uint32_t v) {
    const auto [owner, lva] = world.gas().owner_of(group_gva(v / kGroup));
    return std::pair<int, sim::Lva>(owner, lva + (v % kGroup) * 8);
  };

  const auto relax = world.runtime().actions().add(
      "bfs.relax", [&, send_mode](Context& c, int, util::Buffer args) {
        auto r = args.reader();
        const auto ack = r.get<rt::LcoRef>();
        const auto d = r.get<std::uint32_t>();
        const auto count = r.get<std::uint32_t>();
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto v = r.get<std::uint32_t>();
          const auto [owner, lva] = depth_slot(v);
          auto& mem = world.fabric().mem(owner);
          c.charge(20);
          if (mem.load<std::uint64_t>(lva) == ~0ull) {
            mem.store<std::uint64_t>(lva, d);
            next_frontier[static_cast<std::size_t>(c.rank())].push_back(v);
          }
        }
        if (send_mode == SendMode::kRuntimeCoalesced && ack.node != c.rank()) {
          // Batch the acknowledgement traffic too — the coalescer handles
          // ANY action, including the runtime's built-in lco-set.
          util::Buffer id;
          id.put<std::uint64_t>(ack.id);
          coalescer.send(c, ack.node, world.runtime().lco_set_action(),
                         std::move(id));
        } else {
          c.set_lco(ack);
        }
      });

  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) depth_base = alloc_cyclic(ctx, groups, kGroup * 8);
    co_await world.coll().barrier(ctx);
    for (std::uint32_t g = 0; g < groups; ++g) {
      if (world.gas().owner_of(group_gva(g)).first != ctx.rank()) continue;
      std::vector<std::uint64_t> unvisited(kGroup, ~0ull);
      co_await memput(ctx, group_gva(g), std::as_bytes(std::span(unvisited)));
    }
    co_await world.coll().barrier(ctx);

    std::vector<std::uint32_t> frontier;
    if (world.gas().owner_of(group_gva(0)).first == ctx.rank()) {
      const auto [owner, lva] = depth_slot(0);
      world.fabric().mem(owner).store<std::uint64_t>(lva, 0);
      frontier.push_back(0);
    }

    for (std::uint32_t level = 0;; ++level) {
      std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> buckets;
      for (const auto u : frontier) {
        ctx.charge(30);
        for (const auto v : graph.adj[u]) buckets[v / kGroup].push_back(v);
      }
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
        } else {
          for (const auto v : verts) {
            util::Buffer payload;
            payload.put<rt::LcoRef>(aref);
            payload.put<std::uint32_t>(level + 1);
            payload.put<std::uint32_t>(1);
            payload.put<std::uint32_t>(v);
            if (send_mode == SendMode::kRuntimeCoalesced) {
              // Generic runtime batching: wrap in the apply trampoline and
              // let the coalescer pack per-destination parcels.
              util::Buffer tramp;
              tramp.put<std::uint64_t>(group_gva(g).bits());
              tramp.put<rt::ActionId>(relax);
              tramp.append_raw(payload.bytes());
              coalescer.send(ctx, world.gas().owner_of(group_gva(g)).first,
                             world.runtime().apply_action(), std::move(tramp));
            } else {
              co_await apply(ctx, group_gva(g), relax, std::move(payload));
            }
          }
        }
      }
      if (send_mode == SendMode::kRuntimeCoalesced) coalescer.flush_all(ctx);
      co_await acks;
      ctx.release_ref(aref);
      co_await world.coll().barrier(ctx);
      frontier = std::move(next_frontier[static_cast<std::size_t>(ctx.rank())]);
      next_frontier[static_cast<std::size_t>(ctx.rank())].clear();
      const double discovered = co_await world.coll().allreduce_sum(
          ctx, static_cast<double>(frontier.size()));
      if (discovered == 0.0) break;
    }
  });

  // Spot-verify.
  bool ok = true;
  {
    std::vector<std::uint32_t> ref(graph.vertices, ~0u);
    std::queue<std::uint32_t> q;
    ref[0] = 0;
    q.push(0);
    while (!q.empty()) {
      const auto u = q.front();
      q.pop();
      for (const auto v : graph.adj[u]) {
        if (ref[v] == ~0u) {
          ref[v] = ref[u] + 1;
          q.push(v);
        }
      }
    }
    for (std::uint32_t v = 0; v < graph.vertices; v += 97) {
      const auto [owner, lva] = depth_slot(v);
      if (world.fabric().mem(owner).load<std::uint64_t>(lva) != ref[v]) ok = false;
    }
  }

  BfsResult out;
  out.time = world.now();
  out.parcels = world.counters().parcels_sent;
  out.ok = ok;
  return out;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const int nodes = static_cast<int>(opt.get_int("nodes", 8));
  const auto vertices = static_cast<std::uint32_t>(opt.get_uint("vertices", 8192));
  const auto degree = static_cast<std::uint32_t>(opt.get_uint("degree", 8));
  opt.reject_unknown();

  print_header("S-3", "distributed BFS: managers x parcel coalescing");
  const Graph graph = make_graph(vertices, degree, 3);

  nvgas::util::Table t("BFS traversal time");
  t.columns({"config", "time", "parcels", "verified"});
  const std::pair<SendMode, const char*> send_modes[] = {
      {SendMode::kAppCoalesced, " app-coalesced"},
      {SendMode::kRuntimeCoalesced, " rt-coalesced"},
      {SendMode::kPerEdge, " per-edge"},
  };
  for (const auto& [sm, suffix] : send_modes) {
    for (const auto mode :
         {nvgas::GasMode::kPgas, nvgas::GasMode::kAgasSw, nvgas::GasMode::kAgasNet}) {
      const BfsResult r = run_bfs(mode, graph, nodes, sm);
      std::string name = std::string(nvgas::gas::to_string(mode)) + suffix;
      t.cell(name)
          .cell(nvgas::util::format_ns(static_cast<double>(r.time)))
          .cell(r.parcels)
          .cell(r.ok ? "PASS" : "FAIL")
          .end_row();
    }
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: batching dominates. The generic runtime coalescer\n"
      "recovers the whole wire win (parcel counts match hand-batching) but\n"
      "keeps paying per-message dispatch CPU; hand-batching amortizes that\n"
      "too, which is the residual gap. Manager differences are secondary\n"
      "for this two-sided-heavy workload — agas-net must not trail pgas by\n"
      "more than its translation tax.\n");
  return 0;
}
