// R-F2 — memput streaming bandwidth vs transfer size.
//
// Rank 0 streams `count` puts of `size` bytes to a block set homed on
// rank 1 with a 32-deep window. The figure's series: achieved MiB/s per
// manager plus the raw RMA ceiling (direct endpoint puts, no GAS).
#include "common.hpp"

namespace nvgas::bench {
namespace {

constexpr int kWindow = 32;
constexpr int kTransfers = 128;

double gas_bandwidth(GasMode mode, std::uint32_t size) {
  Config cfg = Config::with_nodes(2, mode);
  cfg.machine.mem_bytes_per_node = 128u << 20;
  World world(cfg);
  sim::Time elapsed = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const std::uint32_t bsize = std::max<std::uint32_t>(size, 64);
    // Enough distinct blocks that each put targets a warm remote block.
    const std::uint32_t nblocks = 16;
    const Gva base = alloc_cyclic(ctx, nblocks, bsize);
    std::vector<Gva> remote;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
      const Gva a = base.advanced(static_cast<std::int64_t>(b) * bsize, bsize);
      if (a.home(ctx.ranks()) == 1) remote.push_back(a);
    }
    // Warm translations.
    for (const Gva a : remote) co_await memput_value<std::uint8_t>(ctx, a, 1);

    std::vector<std::byte> payload(size, std::byte{0x77});
    const sim::Time t0 = ctx.now();
    int issued = 0;
    while (issued < kTransfers) {
      const int batch = std::min(kWindow, kTransfers - issued);
      rt::AndGate gate(static_cast<std::uint64_t>(batch));
      for (int i = 0; i < batch; ++i) {
        memput_nb(ctx, remote[static_cast<std::size_t>(issued + i) % remote.size()],
                  payload, gate);
      }
      issued += batch;
      co_await gate;
    }
    elapsed = ctx.now() - t0;
  });
  world.run();
  const double bytes = static_cast<double>(size) * kTransfers;
  return bytes / (static_cast<double>(elapsed) / 1e9) / (1024.0 * 1024.0);
}

// Raw RMA ceiling: direct endpoint puts, no address-space manager.
double raw_bandwidth(std::uint32_t size) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  cfg.machine.mem_bytes_per_node = 128u << 20;
  World world(cfg);
  sim::Time elapsed = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    auto& ep = world.endpoints().at(0);
    std::vector<std::byte> payload(size, std::byte{0x11});
    rt::AndGate gate(kTransfers);
    const sim::Time t0 = ctx.now();
    // The tx port serializes the stream regardless of windowing.
    for (int i = 0; i < kTransfers; ++i) {
      ep.put(ctx.now(), 1, static_cast<sim::Lva>(size) * i, payload,
             [&gate](sim::Time t) { gate.arrive(t); });
    }
    co_await gate;
    elapsed = ctx.now() - t0;
  });
  world.run();
  const double bytes = static_cast<double>(size) * kTransfers;
  return bytes / (static_cast<double>(elapsed) / 1e9) / (1024.0 * 1024.0);
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto sizes =
      opt.get_uint_list<std::uint32_t>("sizes", {256, 1024, 4096, 16384, 65536, 262144});
  opt.reject_unknown();

  print_header("R-F2", "memput bandwidth vs size (window 32, 2 nodes)");

  nvgas::util::Table t("memput bandwidth (MiB/s)");
  t.columns({"size", "raw RMA", "pgas", "agas-sw", "agas-net", "net/raw"});
  for (const auto size : sizes) {
    const double raw = raw_bandwidth(size);
    const double p = gas_bandwidth(nvgas::GasMode::kPgas, size);
    const double s = gas_bandwidth(nvgas::GasMode::kAgasSw, size);
    const double n = gas_bandwidth(nvgas::GasMode::kAgasNet, size);
    t.cell(nvgas::util::format_bytes(size))
        .cell(raw, 1)
        .cell(p, 1)
        .cell(s, 1)
        .cell(n, 1)
        .cell(n / raw, 3)
        .end_row();
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape: all managers converge to the raw ceiling at large\n"
      "sizes; per-op translation overheads only matter for small puts.\n");
  return 0;
}
