// Latency, three ways: one binary prints three sections in order.
//
//   R-F1  memget latency vs transfer size, idle two-node ping, warm
//         translation state. AGAS-NET must track PGAS within a
//         near-constant offset; all three converge at large sizes where
//         the wire dominates.
//   S-5   loaded latency (supplementary): per-op latency and rate of a
//         remote fetch-add vs window depth, the classic network-evaluation
//         curve. As the window grows, throughput rises until a resource
//         saturates; past that point latency climbs with queueing.
//         PGAS/AGAS-NET queue on NIC ports and command processors;
//         AGAS-SW's misses queue on the home CPUs as well.
//   S-6   tail latency under wire jitter (supplementary): p50/p95/p99 of
//         an 8-byte memget per manager, with seeded uniform
//         switch-arbitration jitter on every wire crossing. Multi-message
//         paths (software AGAS misses, NIC forwards) accumulate more
//         jitter draws, so their tails spread more than their medians.
//
//   build/bench/bench_latency [--sizes=8,64,...] [--windows=1,2,...]
//                             [--sw-cache=256] [--jitter=400]
#include "common.hpp"

namespace nvgas::bench {
namespace {

// --- R-F1: memget latency vs size -----------------------------------------

double memget_latency(GasMode mode, std::uint32_t size) {
  Config cfg = Config::with_nodes(2, mode);
  cfg.machine.mem_bytes_per_node = 16u << 20;
  World world(cfg);
  util::Samples samples;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const std::uint32_t bsize = std::max<std::uint32_t>(size, 64);
    const Gva base = alloc_cyclic(ctx, 2, bsize);
    Gva addr = base;
    if (addr.home(ctx.ranks()) != 1) addr = addr.advanced(bsize, bsize);
    // Warm data + translation.
    std::vector<std::byte> payload(size, std::byte{0x3c});
    co_await memput(ctx, addr, payload);
    for (int i = 0; i < 7; ++i) {
      const sim::Time t0 = ctx.now();
      const auto data = co_await memget(ctx, addr, size);
      samples.add(static_cast<double>(ctx.now() - t0));
      NVGAS_CHECK(data.size() == size);
    }
  });
  world.run();
  return samples.median();
}

// --- S-5: loaded latency ------------------------------------------------

struct LoadPoint {
  double avg_latency_ns = 0;
  double rate = 0;  // ops/s
};

LoadPoint loaded_point(GasMode mode, std::uint64_t window, std::size_t sw_cache) {
  Config cfg = Config::with_nodes(4, mode);
  cfg.machine.mem_bytes_per_node = 16u << 20;
  cfg.gas_costs.sw_cache_capacity = sw_cache;
  World world(cfg);

  constexpr std::uint32_t kBlocks = 512;
  constexpr std::uint32_t kBlockSize = 4096;
  constexpr std::uint64_t kOps = 2000;
  const std::uint64_t words = static_cast<std::uint64_t>(kBlocks) * kBlockSize / 8;

  util::OnlineStats latency;
  sim::Time elapsed = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, kBlocks, kBlockSize);
    util::Rng rng(606);
    const sim::Time t0 = ctx.now();
    std::uint64_t remaining = kOps;
    while (remaining > 0) {
      const std::uint64_t batch = std::min(window, remaining);
      remaining -= batch;
      rt::AndGate gate(batch);
      const sim::Time issue_t = ctx.now();
      for (std::uint64_t i = 0; i < batch; ++i) {
        const auto w = static_cast<std::int64_t>(rng.below(words));
        detail::gas_of(ctx).fetch_add(
            detail::task_of(ctx), ctx.rank(),
            base.advanced(w * 8, kBlockSize), 1,
            [&gate, &latency, issue_t](sim::Time t, std::uint64_t) {
              latency.add(static_cast<double>(t - issue_t));
              gate.arrive(t);
            });
      }
      co_await gate;
    }
    elapsed = ctx.now() - t0;
  });
  world.run();

  LoadPoint out;
  out.avg_latency_ns = latency.mean();
  out.rate = static_cast<double>(kOps) / (static_cast<double>(elapsed) / 1e9);
  return out;
}

// --- S-6: tail latency under jitter -------------------------------------

struct TailResult {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

TailResult tail_point(GasMode mode, sim::Time jitter, bool force_miss,
                      std::size_t sw_cache) {
  Config cfg = Config::with_nodes(4, mode);
  cfg.machine.wire_jitter_ns = jitter;
  cfg.machine.mem_bytes_per_node = 16u << 20;
  cfg.gas_costs.sw_cache_capacity = sw_cache;
  World world(cfg);

  constexpr int kSamples = 600;
  util::Samples samples;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    // Enough distinct remote blocks that force_miss mode never re-hits.
    const std::uint32_t nblocks = force_miss ? 2048 : 8;
    const Gva base = alloc_cyclic(ctx, nblocks, 64);
    std::vector<Gva> remote;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      const Gva a = base.advanced(static_cast<std::int64_t>(b) * 64, 64);
      if (a.home(ctx.ranks()) != 0) remote.push_back(a);
    }
    if (!force_miss) {
      for (const Gva a : remote) {
        (void)co_await memget_value<std::uint64_t>(ctx, a);  // warm
      }
    }
    for (int i = 0; i < kSamples; ++i) {
      const Gva a = remote[static_cast<std::size_t>(i) % remote.size()];
      const sim::Time t0 = ctx.now();
      (void)co_await memget_value<std::uint64_t>(ctx, a);
      samples.add(static_cast<double>(ctx.now() - t0));
    }
  });
  world.run();

  TailResult out;
  out.p50 = samples.percentile(50);
  out.p95 = samples.percentile(95);
  out.p99 = samples.percentile(99);
  out.max = samples.max();
  return out;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto sizes = opt.get_uint_list<std::uint32_t>(
      "sizes", {8, 64, 512, 4096, 32768, 262144, 1048576 / 2});
  const auto windows = opt.get_uint_list("windows", {1, 2, 4, 8, 16, 32, 64});
  const std::size_t sw_cache = opt.get_uint("sw-cache", 256);
  const nvgas::sim::Time jitter = opt.get_uint("jitter", 400);
  opt.reject_unknown();

  {
    print_header("R-F1", "memget latency vs size (2 nodes, warm translation)");

    nvgas::util::Table t("memget latency");
    t.columns({"size", "pgas", "agas-sw", "agas-net", "sw/pgas", "net/pgas"});
    for (const auto size : sizes) {
      const double p = memget_latency(nvgas::GasMode::kPgas, size);
      const double s = memget_latency(nvgas::GasMode::kAgasSw, size);
      const double n = memget_latency(nvgas::GasMode::kAgasNet, size);
      t.cell(nvgas::util::format_bytes(size))
          .cell(nvgas::util::format_ns(p))
          .cell(nvgas::util::format_ns(s))
          .cell(nvgas::util::format_ns(n))
          .cell(s / p, 3)
          .cell(n / p, 3)
          .end_row();
    }
    t.print(std::cout);
    std::printf(
        "\nExpected shape: net/pgas ≈ 1 + small constant shrinking with size;\n"
        "sw/pgas similar when warm; all ratios → 1 as the wire dominates.\n");
  }
  {
    print_header("S-5", "loaded latency: per-op latency & rate vs window depth");

    nvgas::util::Table t("remote fetch-add under load (4 nodes)");
    t.columns({"window", "pgas lat", "pgas rate", "agas-sw lat", "agas-sw rate",
               "agas-net lat", "agas-net rate"});
    for (const auto w : windows) {
      const LoadPoint p = loaded_point(nvgas::GasMode::kPgas, w, sw_cache);
      const LoadPoint s = loaded_point(nvgas::GasMode::kAgasSw, w, sw_cache);
      const LoadPoint n = loaded_point(nvgas::GasMode::kAgasNet, w, sw_cache);
      t.cell(w)
          .cell(nvgas::util::format_ns(p.avg_latency_ns))
          .cell(nvgas::util::format_rate(p.rate))
          .cell(nvgas::util::format_ns(s.avg_latency_ns))
          .cell(nvgas::util::format_rate(s.rate))
          .cell(nvgas::util::format_ns(n.avg_latency_ns))
          .cell(nvgas::util::format_rate(n.rate))
          .end_row();
    }
    t.print(std::cout);
    std::printf(
        "\nExpected shape: rate grows with window until a port saturates, then\n"
        "latency climbs ~linearly with depth; agas-sw saturates earliest (its\n"
        "misses consume home CPU on top of the wire).\n");
  }
  {
    print_header("S-6", "tail latency under wire jitter (8 B memget)");

    nvgas::util::Table t("latency percentiles, ±U(0,400ns)/hop jitter");
    t.columns({"path", "p50", "p95", "p99", "max", "p99/p50"});
    struct Row {
      const char* name;
      nvgas::GasMode mode;
      bool force_miss;
      std::size_t cache;
    };
    const Row rows[] = {
        {"pgas", nvgas::GasMode::kPgas, false, 4096},
        {"agas-sw warm", nvgas::GasMode::kAgasSw, false, 4096},
        {"agas-sw miss", nvgas::GasMode::kAgasSw, true, 4},
        {"agas-net warm", nvgas::GasMode::kAgasNet, false, 4096},
    };
    for (const auto& r : rows) {
      const TailResult res = tail_point(r.mode, jitter, r.force_miss, r.cache);
      t.cell(r.name)
          .cell(nvgas::util::format_ns(res.p50))
          .cell(nvgas::util::format_ns(res.p95))
          .cell(nvgas::util::format_ns(res.p99))
          .cell(nvgas::util::format_ns(res.max))
          .cell(res.p99 / res.p50, 3)
          .end_row();
    }
    t.print(std::cout);
    std::printf(
        "\nExpected shape: warm paths draw 2 jitter samples per op; the\n"
        "software-AGAS miss path draws 4 (+CPU queueing), so its absolute\n"
        "p99-p50 spread widens on top of a median that more than doubles.\n");
  }
  return 0;
}
