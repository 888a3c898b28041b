// R-T3 — sensitivity of the two AGAS designs to translation-state
// capacity and to CPU workers, which DESIGN.md §8 calls out.
//
//   B. software cache capacity sweep under a fixed random-access load.
//   C. NIC TLB capacity sweep under the same load.
//   E. CPU workers per node under random access plus compute.
//
// The letters follow EXPERIMENTS.md's R-T3 sections.
#include "common.hpp"
#include "workloads/gups.hpp"

namespace nvgas::bench {
namespace {

// --- B/C: translation-state capacity sweeps -----------------------------

double random_access_time(GasMode mode, std::size_t sw_cache,
                          std::size_t tlb_capacity) {
  Config cfg = Config::with_nodes(8, mode);
  cfg.machine.mem_bytes_per_node = 32u << 20;
  cfg.gas_costs.sw_cache_capacity = sw_cache;
  cfg.agas_net.tlb_capacity = tlb_capacity;
  World world(cfg);

  constexpr std::uint32_t kBlocks = 1024;  // working set: 1024 translations
  constexpr std::uint32_t kBlockSize = 4096;
  constexpr std::uint64_t kOps = 3000;

  sim::Time elapsed = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, kBlocks, kBlockSize);
    // Shuffle every block off its home: without mobility, a translation
    // miss routes to the home — which IS the owner — and costs nothing,
    // hiding the capacity effect entirely.
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      const Gva blk = base.advanced(static_cast<std::int64_t>(b) * kBlockSize,
                                    kBlockSize);
      co_await migrate(ctx, blk, (blk.home(ctx.ranks()) + 3) % ctx.ranks());
    }
    util::Rng rng(99);
    const sim::Time t0 = ctx.now();
    std::uint64_t remaining = kOps;
    while (remaining > 0) {
      const std::uint64_t batch = std::min<std::uint64_t>(16, remaining);
      remaining -= batch;
      rt::AndGate gate(batch);
      for (std::uint64_t i = 0; i < batch; ++i) {
        const auto b = static_cast<std::int64_t>(rng.below(kBlocks));
        fetch_add_nb(ctx, base.advanced(b * kBlockSize, kBlockSize), 1, gate);
      }
      co_await gate;
    }
    elapsed = ctx.now() - t0;
  });
  world.run();
  return static_cast<double>(elapsed) / kOps;
}

// --- E: CPU workers per node ----------------------------------------------
// The software AGAS's directory work competes with application handlers
// for CPU workers; the network-managed design doesn't care. Random-access
// throughput vs workers-per-node quantifies the difference.
double worker_sweep_rate(GasMode mode, int workers) {
  Config cfg = Config::with_nodes(8, mode);
  cfg.machine.workers_per_node = workers;
  cfg.machine.mem_bytes_per_node = 16u << 20;
  cfg.gas_costs.sw_cache_capacity = 256;  // force directory traffic
  World world(cfg);
  constexpr std::uint64_t kUpdatesPerRank = 800;
  // Each update also charges competing application compute on the same
  // workers.
  const sim::Time t = apps::workloads::run_gups(
      world, {.blocks = 512,
              .updates_per_rank = kUpdatesPerRank,
              .seed_base = 4242,
              .compute_ns = 500});
  return static_cast<double>(kUpdatesPerRank) * 8 / (static_cast<double>(t) / 1e9);
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  nvgas::util::Options(argc, argv).reject_unknown();  // takes no flags
  print_header("R-T3", "design-choice ablations");

  {
    nvgas::util::Table t("B. software cache capacity (1024-block working set)");
    t.columns({"sw cache entries", "ns per op"});
    for (std::size_t cap : {64, 256, 512, 1024, 2048, 8192}) {
      t.cell(static_cast<std::uint64_t>(cap))
          .cell(random_access_time(nvgas::GasMode::kAgasSw, cap, 65536), 1)
          .end_row();
    }
    t.print(std::cout);
  }

  {
    nvgas::util::Table t("C. NIC TLB capacity (same working set)");
    t.columns({"tlb entries", "ns per op"});
    for (std::size_t cap : {64, 256, 512, 1024, 2048, 8192}) {
      t.cell(static_cast<std::uint64_t>(cap))
          .cell(random_access_time(nvgas::GasMode::kAgasNet, 4096, cap), 1)
          .end_row();
    }
    t.print(std::cout);
    std::printf(
        "Expected: both degrade below the 1024-entry working set, but the\n"
        "software miss (home-CPU round trip) is costlier than the NIC miss\n"
        "(forward at the home NIC).\n\n");
  }

  {
    nvgas::util::Table t("E. CPU workers per node (random access + compute)");
    t.columns({"workers", "agas-sw", "agas-net", "net/sw"});
    for (int w : {1, 2, 4}) {
      const double s = worker_sweep_rate(nvgas::GasMode::kAgasSw, w);
      const double n = worker_sweep_rate(nvgas::GasMode::kAgasNet, w);
      t.cell(static_cast<std::int64_t>(w))
          .cell(nvgas::util::format_rate(s))
          .cell(nvgas::util::format_rate(n))
          .cell(n / s, 3)
          .end_row();
    }
    t.print(std::cout);
    std::printf(
        "Expected: extra workers help the software AGAS most (its directory\n"
        "tasks stop competing with handlers); the NIC-managed path is\n"
        "CPU-oblivious, so its advantage is largest at 1 worker.\n\n");
  }

  return 0;
}
