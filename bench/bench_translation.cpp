// R-T1 — translation-path cost breakdown.
//
// Measures the end-to-end latency of an 8-byte memget on each
// translation path and isolates the path cost by subtracting the raw
// one-sided RMA floor (measured with a direct endpoint get). The rows the
// paper's table reports: arithmetic PGAS, software cache hit, software
// cache miss (directory round trip on the home CPU), NIC TLB hit, and
// NIC forward after a migration.
#include "common.hpp"

namespace nvgas::bench {
namespace {

struct Probe {
  double total_ns = 0;      // end-to-end memget latency
  std::uint64_t messages = 0;
  std::uint64_t cpu_tasks_home = 0;  // CPU tasks the HOME rank ran
};

// Median-of-k single-op memget latency under a prepared state.
Probe measure(GasMode mode, bool stale_after_migration) {
  Config cfg = Config::with_nodes(4, mode);
  World world(cfg);
  util::Samples samples;
  std::uint64_t msgs = 0;
  std::uint64_t home_tasks = 0;
  int home_rank = -1;

  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 4, 4096);
    // Pick the block homed on rank 1 (issuer is rank 0 → always remote).
    Gva addr = base;
    while (addr.home(ctx.ranks()) != 1) addr = addr.advanced(4096, 4096);
    home_rank = 1;
    co_await memput_value<std::uint64_t>(ctx, addr, 42);  // data + warm

    if (stale_after_migration) {
      // Make rank 0's translation stale: move the block to rank 2 via a
      // fiber on rank 3 (so rank 0's cache/TLB is not repaired).
      rt::Event moved;
      const rt::LcoRef mref = ctx.make_ref(moved);
      ctx.spawn(3, [addr, mref](Context& c) -> Fiber {
        co_await migrate(c, addr, 2);
        c.set_lco(mref);
      });
      co_await moved;
    }

    for (int i = 0; i < 9; ++i) {
      const auto msgs_before = world.counters().messages_sent;
      const auto tasks_before = world.fabric().cpu(1).tasks_run();
      const sim::Time t0 = ctx.now();
      (void)co_await memget_value<std::uint64_t>(ctx, addr);
      samples.add(static_cast<double>(ctx.now() - t0));
      msgs = world.counters().messages_sent - msgs_before;
      home_tasks = world.fabric().cpu(1).tasks_run() - tasks_before;
      if (stale_after_migration && mode == GasMode::kAgasSw) {
        // Re-stale the cache for the next iteration is impossible without
        // another migration; measure once and stop.
        break;
      }
      if (stale_after_migration && mode == GasMode::kAgasNet) break;
    }
    (void)home_rank;
  });
  world.run();

  Probe p;
  p.total_ns = samples.median();
  p.messages = msgs;
  p.cpu_tasks_home = home_tasks;
  return p;
}

Probe measure_warm(GasMode mode) { return measure(mode, false); }

Probe measure_cold(GasMode mode) {
  // Cold translation state at the issuer: measure the very first access
  // (no warmup). We emulate by accessing a *different* never-touched
  // block.
  Config cfg = Config::with_nodes(4, mode);
  World world(cfg);
  util::Samples samples;
  std::uint64_t msgs = 0;
  std::uint64_t home_tasks = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 64, 4096);
    // Collect the blocks homed on rank 1, never touched before.
    std::vector<Gva> victims;
    for (int b = 0; b < 64; ++b) {
      const Gva a = base.advanced(b * 4096, 4096);
      if (a.home(ctx.ranks()) == 1) victims.push_back(a);
    }
    for (std::size_t i = 0; i < 9 && i < victims.size(); ++i) {
      const auto msgs_before = world.counters().messages_sent;
      const auto tasks_before = world.fabric().cpu(1).tasks_run();
      const sim::Time t0 = ctx.now();
      (void)co_await memget_value<std::uint64_t>(ctx, victims[i]);
      samples.add(static_cast<double>(ctx.now() - t0));
      msgs = world.counters().messages_sent - msgs_before;
      home_tasks = world.fabric().cpu(1).tasks_run() - tasks_before;
    }
  });
  world.run();
  Probe p;
  p.total_ns = samples.median();
  p.messages = msgs;
  p.cpu_tasks_home = home_tasks;
  return p;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  nvgas::util::Options(argc, argv).reject_unknown();  // takes no flags
  print_header("R-T1", "translation-path cost breakdown (8 B memget, 4 nodes)");

  const Probe pgas = measure_warm(nvgas::GasMode::kPgas);
  const Probe sw_hit = measure_warm(nvgas::GasMode::kAgasSw);
  const Probe sw_miss = measure_cold(nvgas::GasMode::kAgasSw);
  const Probe net_hit = measure_warm(nvgas::GasMode::kAgasNet);
  const Probe net_cold = measure_cold(nvgas::GasMode::kAgasNet);
  const Probe sw_stale = measure(nvgas::GasMode::kAgasSw, true);
  const Probe net_stale = measure(nvgas::GasMode::kAgasNet, true);

  nvgas::util::Table t("per-path memget latency");
  t.columns({"path", "latency", "vs PGAS", "wire msgs", "home CPU tasks"});
  auto row = [&](const char* name, const Probe& p) {
    t.cell(name)
        .cell(nvgas::util::format_ns(p.total_ns))
        .cell(p.total_ns >= pgas.total_ns
                  ? std::string("+").append(
                        nvgas::util::format_ns(p.total_ns - pgas.total_ns))
                  : "-")
        .cell(p.messages)
        .cell(p.cpu_tasks_home)
        .end_row();
  };
  row("pgas (arithmetic)", pgas);
  row("agas-sw  cache hit", sw_hit);
  row("agas-sw  cache miss (dir RTT)", sw_miss);
  row("agas-sw  stale (inv+miss)", sw_stale);
  row("agas-net TLB hit", net_hit);
  row("agas-net TLB miss (home-owned)", net_cold);
  row("agas-net stale (NIC forward)", net_stale);
  t.print(std::cout);

  std::printf(
      "\nExpected shape: sw-hit ≈ pgas + ~cache cost; sw-miss adds a full\n"
      "directory round trip THROUGH THE HOME CPU; net-hit ≈ pgas + TLB;\n"
      "net-miss/stale add wire hops but zero CPU tasks anywhere.\n");
  return 0;
}
