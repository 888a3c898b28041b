// R-F4 — migration cost vs block size, and the post-migration
// first-access penalty.
//
// Two series per mobile manager:
//   (a) end-to-end migration latency as the block grows (linear in size
//       for both; AGAS-SW adds sharer invalidation round trips),
//   (b) the first access from a rank holding a stale translation after
//       the move (SW: invalidation already cleared the cache → miss +
//       directory RTT; NET: one NIC forward hop).
#include "common.hpp"

namespace nvgas::bench {
namespace {

struct MigProbe {
  double migrate_ns = 0;
  double stale_access_ns = 0;
  double warm_access_ns = 0;
};

MigProbe probe(GasMode mode, std::uint32_t block_size, int sharers) {
  Config cfg = Config::with_nodes(8, mode);
  cfg.machine.mem_bytes_per_node = 64u << 20;
  World world(cfg);
  MigProbe out;

  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva block = alloc_cyclic(ctx, 1, block_size);
    co_await memput_value<std::uint64_t>(ctx, block, 7);

    // Prime `sharers` ranks with warm translations (they become the
    // invalidation targets for AGAS-SW).
    if (sharers > 0) {
      rt::AndGate warm(static_cast<std::uint64_t>(sharers));
      const rt::LcoRef wref = ctx.make_ref(warm);
      for (int s = 0; s < sharers; ++s) {
        ctx.spawn(2 + s, [block, wref](Context& c) -> Fiber {
          (void)co_await memget_value<std::uint64_t>(c, block);
          c.set_lco(wref);
        });
      }
      co_await warm;
    }

    // Warm access baseline from rank 2.
    rt::Future<std::uint64_t> warm_lat;
    const rt::LcoRef wl = ctx.make_ref(warm_lat);
    ctx.spawn(2, [block, wl](Context& c) -> Fiber {
      const sim::Time t0 = c.now();
      (void)co_await memget_value<std::uint64_t>(c, block);
      util::Buffer b;
      b.put<std::uint64_t>(c.now() - t0);
      c.set_lco(wl, std::move(b));
    });
    out.warm_access_ns = static_cast<double>(co_await warm_lat);

    // Timed migration home → rank 5.
    const sim::Time m0 = ctx.now();
    co_await migrate(ctx, block, 5);
    out.migrate_ns = static_cast<double>(ctx.now() - m0);

    // First access from rank 2, whose translation is now stale (NET) or
    // invalidated (SW).
    rt::Future<std::uint64_t> stale_lat;
    const rt::LcoRef sl = ctx.make_ref(stale_lat);
    ctx.spawn(2, [block, sl](Context& c) -> Fiber {
      const sim::Time t0 = c.now();
      (void)co_await memget_value<std::uint64_t>(c, block);
      util::Buffer b;
      b.put<std::uint64_t>(c.now() - t0);
      c.set_lco(sl, std::move(b));
    });
    out.stale_access_ns = static_cast<double>(co_await stale_lat);
  });
  world.run();
  return out;
}

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto sizes =
      opt.get_uint_list<std::uint32_t>("sizes", {4096, 16384, 65536, 262144, 1048576 / 2});
  const int sharers = opt.get_int<int>("sharers", 4);
  opt.reject_unknown();

  print_header("R-F4", "migration latency vs block size + stale-access penalty");

  nvgas::util::Table t("block migration");
  t.columns({"block", "sw migrate", "net migrate", "sw stale acc", "net stale acc",
             "warm acc"});
  for (const auto size : sizes) {
    const MigProbe sw = probe(nvgas::GasMode::kAgasSw, size, sharers);
    const MigProbe net = probe(nvgas::GasMode::kAgasNet, size, sharers);
    t.cell(nvgas::util::format_bytes(size))
        .cell(nvgas::util::format_ns(sw.migrate_ns))
        .cell(nvgas::util::format_ns(net.migrate_ns))
        .cell(nvgas::util::format_ns(sw.stale_access_ns))
        .cell(nvgas::util::format_ns(net.stale_access_ns))
        .cell(nvgas::util::format_ns(net.warm_access_ns))
        .end_row();
  }
  t.print(std::cout);

  // Sharer sweep at fixed size: SW migration cost grows with the sharer
  // count (invalidation round trips); NET is sharer-oblivious.
  nvgas::util::Table t2("migration latency vs sharer count (64 KiB block)");
  t2.columns({"sharers", "agas-sw", "agas-net"});
  for (int s : {0, 1, 2, 4, 6}) {
    const MigProbe sw = probe(nvgas::GasMode::kAgasSw, 65536, s);
    const MigProbe net = probe(nvgas::GasMode::kAgasNet, 65536, s);
    t2.cell(static_cast<std::int64_t>(s))
        .cell(nvgas::util::format_ns(sw.migrate_ns))
        .cell(nvgas::util::format_ns(net.migrate_ns))
        .end_row();
  }
  t2.print(std::cout);

  std::printf(
      "\nExpected shape: both migrate in O(size); SW adds sharer-count-\n"
      "proportional invalidation cost; post-move stale access: SW pays a\n"
      "directory round trip, NET pays one forwarded hop (≈ warm + 1 wire).\n");
  return 0;
}
