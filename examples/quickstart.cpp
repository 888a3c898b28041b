// Quickstart: the nvgas API in one file.
//
//   build/examples/quickstart [--nodes=8] [--mode=pgas|agas-sw|agas-net]
//
// Walks through the core capabilities: allocating a cyclic global array,
// one-sided put/get on global addresses, remote atomics, migrating a
// block without changing its address, and routing a parcel to wherever
// an object currently lives.
#include <cstdio>

#include "core/nvgas.hpp"

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  nvgas::Config cfg =
      nvgas::Config::with_nodes(opt.get_int<int>("nodes", 8), nvgas::mode_option(opt));
  opt.reject_unknown();

  nvgas::World world(cfg);
  std::printf("nvgas quickstart: %d nodes, %s address space\n\n", world.ranks(),
              nvgas::gas::to_string(cfg.gas_mode));

  // An action we will route to a mobile object later.
  const auto greet = world.runtime().actions().add(
      "quickstart.greet", [](nvgas::Context& c, int src, nvgas::util::Buffer) {
        std::printf("  [t=%8llu ns] greet action runs on rank %d (sent by %d)\n",
                    static_cast<unsigned long long>(c.now()), c.rank(), src);
      });

  world.spawn(0, [&](nvgas::Context& ctx) -> nvgas::Fiber {
    // 1. Allocate a global array: 8 blocks of 4 KiB, homes round-robin.
    const nvgas::Gva table = nvgas::alloc_cyclic(ctx, 8, 4096);
    std::printf("allocated 8x4KiB cyclic blocks; block 0 homed on rank %d\n",
                table.home(ctx.ranks()));

    // 2. One-sided writes to every block — no CPU runs on the targets.
    for (int b = 0; b < 8; ++b) {
      co_await nvgas::memput_value<double>(ctx, table.advanced(b * 4096, 4096),
                                           b * 1.5);
    }
    std::printf("wrote one double per block (one-sided)\n");

    // 3. Read one back.
    const double v =
        co_await nvgas::memget_value<double>(ctx, table.advanced(3 * 4096, 4096));
    std::printf("read block 3: %.1f (expected 4.5)\n", v);

    // 4. Remote atomics: a global counter.
    const nvgas::Gva counter = nvgas::alloc_cyclic(ctx, 1, 64);
    for (int i = 0; i < 5; ++i) {
      (void)co_await nvgas::fetch_add(ctx, counter, 10);
    }
    const auto total = co_await nvgas::memget_value<std::uint64_t>(ctx, counter);
    std::printf("fetch_add x5(+10): counter = %llu\n",
                static_cast<unsigned long long>(total));

    // 5. Migration (AGAS modes only): the address stays valid.
    if (world.gas().supports_migration()) {
      const int before = co_await nvgas::resolve(ctx, table);
      co_await nvgas::migrate(ctx, table, (before + 2) % ctx.ranks());
      const int after = co_await nvgas::resolve(ctx, table);
      const double still =
          co_await nvgas::memget_value<double>(ctx, table);
      std::printf("migrated block 0: rank %d -> rank %d; same GVA reads %.1f\n",
                  before, after, still);

      // 6. Parcels follow objects.
      co_await nvgas::apply(ctx, table, greet, {});
    } else {
      std::printf("(PGAS mode: migration not supported — skipping)\n");
    }

    // 7. Copy between global addresses and bulk I/O across blocks.
    co_await nvgas::memcpy_gva(ctx, table.advanced(2 * 4096, 4096), table, 8);
    std::vector<std::byte> bulk(3 * 4096);
    for (std::size_t i = 0; i < bulk.size(); ++i) {
      bulk[i] = static_cast<std::byte>(i & 0xff);
    }
    co_await nvgas::memput_span(ctx, table.advanced(4 * 4096, 4096), bulk);
    const auto bulk_back =
        co_await nvgas::memget_span(ctx, table.advanced(4 * 4096, 4096), bulk.size());
    std::printf("bulk span round trip over 3 blocks: %s\n",
                bulk_back == bulk ? "ok" : "MISMATCH");

    // 8. Release everything (collective free: storage returns at the
    // blocks' current owners).
    nvgas::free_alloc(ctx, counter);
    nvgas::free_alloc(ctx, table);
    std::printf("allocations released\n");
  });
  world.run();

  std::printf("\nsimulated time: %s, messages: %llu, bytes: %llu\n",
              nvgas::util::format_ns(static_cast<double>(world.now())).c_str(),
              static_cast<unsigned long long>(world.counters().messages_sent),
              static_cast<unsigned long long>(world.counters().bytes_sent));
  return 0;
}
