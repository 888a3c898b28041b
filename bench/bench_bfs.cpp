// S-3 (supplementary) — irregular application: distributed BFS traversal
// time across the address-space managers, with and without parcel
// coalescing (the AM++-style message batching the surrounding literature
// leans on for this workload class).
#include "common.hpp"
#include "workloads/bfs.hpp"

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  using namespace nvgas::apps::workloads;
  const nvgas::util::Options opt(argc, argv);
  const int nodes = opt.get_int<int>("nodes", 8);
  const auto vertices = opt.get_uint<std::uint32_t>("vertices", 8192);
  const auto degree = opt.get_uint<std::uint32_t>("degree", 8);
  opt.reject_unknown();

  print_header("S-3", "distributed BFS: managers x parcel coalescing");
  const Graph graph = Graph::random(vertices, degree, 3);

  nvgas::util::Table t("BFS traversal time");
  t.columns({"config", "time", "parcels", "verified"});
  const std::pair<SendMode, const char*> send_modes[] = {
      {SendMode::kAppCoalesced, " app-coalesced"},
      {SendMode::kRuntimeCoalesced, " rt-coalesced"},
      {SendMode::kPerEdge, " per-edge"},
  };
  bool all_pass = true;
  for (const auto& [sm, suffix] : send_modes) {
    for (const auto mode :
         {nvgas::GasMode::kPgas, nvgas::GasMode::kAgasSw, nvgas::GasMode::kAgasNet}) {
      nvgas::Config cfg = nvgas::Config::with_nodes(nodes, mode);
      cfg.machine.mem_bytes_per_node = 32u << 20;
      nvgas::World world(cfg);
      const BfsResult r = run_bfs(world, graph, sm);
      all_pass = all_pass && r.mismatches == 0;
      t.cell(std::string(nvgas::gas::to_string(mode)) + suffix)
          .cell(nvgas::util::format_ns(static_cast<double>(world.now())))
          .cell(world.counters().parcels_sent)
          .cell(r.mismatches == 0 ? "PASS" : "FAIL")
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
  return all_pass ? 0 : 1;
}
