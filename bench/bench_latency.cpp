// R-F1 — memget latency vs transfer size, three address-space managers.
//
// Two-node ping: rank 0 reads `size` bytes from a block homed on rank 1,
// translation state warm. The figure's series: latency(size) per manager;
// AGAS-NET must track PGAS within a near-constant offset, and all three
// converge at large sizes where the wire dominates.
#include "common.hpp"

namespace nvgas::bench {
namespace {

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

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto sizes = opt.get_uint_list(
      "sizes", {8, 64, 512, 4096, 32768, 262144, 1048576 / 2});
  opt.reject_unknown();

  print_header("R-F1", "memget latency vs size (2 nodes, warm translation)");

  nvgas::util::Table t("memget latency");
  t.columns({"size", "pgas", "agas-sw", "agas-net", "sw/pgas", "net/pgas"});
  for (const auto size : sizes) {
    const double p = memget_latency(nvgas::GasMode::kPgas,
                                    static_cast<std::uint32_t>(size));
    const double s = memget_latency(nvgas::GasMode::kAgasSw,
                                    static_cast<std::uint32_t>(size));
    const double n = memget_latency(nvgas::GasMode::kAgasNet,
                                    static_cast<std::uint32_t>(size));
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
  return 0;
}
