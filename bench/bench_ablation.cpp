// R-T3 — ablations of the network-managed design choices, plus the
// software-cache capacity sensitivity DESIGN.md §8 calls out.
//
//   A. stale-op policy: forward-at-owner (hints) vs forward-via-home vs
//      NACK-to-source, with and without piggybacked TLB updates.
//   B. software cache capacity sweep under a fixed random-access load.
//   C. NIC TLB capacity sweep under the same load.
//   D. eager/rendezvous threshold sweep at a fixed parcel size.
#include "common.hpp"
#include "workloads/gups.hpp"

namespace nvgas::bench {
namespace {

// --- A: stale-access policies ------------------------------------------

struct StaleProbe {
  double first_stale_ns = 0;
  double steady_ns = 0;  // after repair (or not, without piggyback)
  std::uint64_t messages_first = 0;
};

StaleProbe stale_policy(bool hints, bool nack, bool piggyback) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  cfg.agas_net.forward_hints = hints;
  cfg.agas_net.nack_on_stale = nack;
  cfg.agas_net.piggyback_updates = piggyback;
  World world(cfg);
  StaleProbe out;

  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva block = alloc_cyclic(ctx, 1, 4096);
    co_await memput_value<std::uint64_t>(ctx, block, 9);

    // Move the block off its home first, so that the stale source's
    // translation will point at a NON-home previous owner — the only
    // place where the hint/NACK policies differ from the home's
    // authoritative forward.
    const int first_stop = (block.home(ctx.ranks()) + 5) % ctx.ranks();
    co_await migrate(ctx, block, first_stop);

    rt::Event warmed;
    rt::Event moved;
    rt::Future<std::uint64_t> first;
    rt::Future<std::uint64_t> steady;
    const rt::LcoRef wref = ctx.make_ref(warmed);
    const rt::LcoRef fref = ctx.make_ref(first);
    const rt::LcoRef sref = ctx.make_ref(steady);
    ctx.spawn(2, [&, block, wref, fref, sref](Context& c) -> Fiber {
      (void)co_await memget_value<std::uint64_t>(c, block);  // warm (if piggyback)
      c.set_lco(wref);
      co_await moved;
      const auto msgs0 = world.counters().messages_sent;
      sim::Time t0 = c.now();
      (void)co_await memget_value<std::uint64_t>(c, block);
      util::Buffer b1;
      b1.put<std::uint64_t>(c.now() - t0);
      b1.put<std::uint64_t>(world.counters().messages_sent - msgs0);
      c.set_lco(fref, std::move(b1));
      // Steady state: next access.
      t0 = c.now();
      (void)co_await memget_value<std::uint64_t>(c, block);
      util::Buffer b2;
      b2.put<std::uint64_t>(c.now() - t0);
      c.set_lco(sref, std::move(b2));
    });
    co_await warmed;
    const int second_stop = (first_stop + 2) % ctx.ranks();
    co_await migrate(ctx, block, second_stop);
    moved.set(ctx.now());
    const auto fv = co_await first;
    out.first_stale_ns = static_cast<double>(fv);
    out.steady_ns = static_cast<double>(co_await steady);
  });
  // The Future packed two u64s; decode messages from the raw future is
  // awkward — re-derive from counters instead (single stale access in
  // the run window dominates nic_forwards).
  world.run();
  out.messages_first = world.counters().nic_forwards;
  return out;
}

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

// --- D: eager threshold -------------------------------------------------

double parcel_flood_ns(std::size_t payload, std::size_t threshold) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  cfg.net.eager_threshold = threshold;
  World world(cfg);
  constexpr int kParcels = 100;
  int handled = 0;
  sim::Time last = 0;
  const auto sink = world.runtime().actions().add(
      "abl.sink", [&](Context& c, int, util::Buffer) {
        ++handled;
        last = c.now();
      });
  sim::Time start = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    start = ctx.now();
    for (int i = 0; i < kParcels; ++i) {
      util::Buffer b;
      b.append_raw(std::vector<std::byte>(payload));
      ctx.send(1, sink, std::move(b));
    }
    co_return;
  });
  world.run();
  NVGAS_CHECK(handled == kParcels);
  return static_cast<double>(last - start) / kParcels;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  nvgas::util::Options(argc, argv).reject_unknown();  // takes no flags
  print_header("R-T3", "design-choice ablations");

  {
    nvgas::util::Table t("A. stale-op policy (first access after migration)");
    t.columns({"policy", "first stale access", "steady state", "NIC forwards"});
    struct P {
      const char* name;
      bool hints, nack, piggyback;
    };
    const P policies[] = {
        {"forward hints + piggyback (default)", true, false, true},
        {"forward via home + piggyback", false, false, true},
        {"forward hints, no piggyback", true, false, false},
        {"NACK to source", false, true, true},
    };
    for (const auto& p : policies) {
      const StaleProbe r = stale_policy(p.hints, p.nack, p.piggyback);
      t.cell(p.name)
          .cell(nvgas::util::format_ns(r.first_stale_ns))
          .cell(nvgas::util::format_ns(r.steady_ns))
          .cell(r.messages_first)
          .end_row();
    }
    t.print(std::cout);
    std::printf(
        "Expected: NACK costs an extra round trip on first access; without\n"
        "piggyback the steady state keeps paying the forward.\n\n");
  }

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

  {
    nvgas::util::Table t("D. eager/rendezvous threshold (4 KiB parcels)");
    t.columns({"threshold", "protocol", "ns per parcel"});
    for (std::size_t thr : {512, 1024, 2048, 4096, 8192, 16384}) {
      t.cell(nvgas::util::format_bytes(thr))
          .cell(thr >= 4096 + 4 ? "eager" : "rendezvous")
          .cell(parcel_flood_ns(4096, thr), 1)
          .end_row();
    }
    t.print(std::cout);
  }
  return 0;
}
