// Failure injection: resource exhaustion, invalid addresses, translation
// pressure, migration storms. These assert that invariant violations die
// loudly (NVGAS_CHECK) and that legitimate pressure degrades gracefully.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"

namespace nvgas {
namespace {

TEST(FailureInjection, HeapExhaustionAbortsWithMessage) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  cfg.machine.mem_bytes_per_node = 64 * 1024;  // tiny registered segment
  EXPECT_DEATH(
      {
        World world(cfg);
        world.spawn(0, [&](Context& ctx) -> Fiber {
          // 2 nodes * 64 KiB can't hold 64 x 16 KiB.
          (void)alloc_cyclic(ctx, 64, 16384);
          co_return;
        });
        world.run();
      },
      "exhausted");
}

TEST(FailureInjection, MigrationIntoFullNodeAborts) {
  Config cfg = Config::with_nodes(4, GasMode::kAgasNet);
  cfg.machine.mem_bytes_per_node = 256 * 1024;
  EXPECT_DEATH(
      {
        World world(cfg);
        world.spawn(0, [&](Context& ctx) -> Fiber {
          // Fill rank 1 nearly to the brim with local allocations...
          const Gva filler = alloc_local(ctx, 3, 65536);
          (void)filler;
          // ...then migrate a large foreign block into it.
          const Gva big = alloc_local(ctx, 1, 131072);  // on rank 0
          EXPECT_EQ(big.home(ctx.ranks()), 0);
          co_await migrate(ctx, big, 0);  // no-op (already there)
          co_return;
        });
        world.run();
        // Note: rank 1's fill uses alloc_local from rank 1.
        World world2(cfg);
        world2.spawn(1, [&](Context& ctx) -> Fiber {
          (void)alloc_local(ctx, 3, 65536);  // ~192 KiB of 256 KiB
          co_return;
        });
        world2.spawn(0, [&](Context& ctx) -> Fiber {
          co_await ctx.sleep(1'000'000);  // after the fill
          const Gva big = alloc_local(ctx, 1, 131072);
          co_await migrate(ctx, big, 1);  // cannot fit
        });
        world2.run();
      },
      "exhausted");
}

TEST(FailureInjection, UnallocatedGvaAborts) {
  for (GasMode mode : {GasMode::kPgas, GasMode::kAgasSw, GasMode::kAgasNet}) {
    EXPECT_DEATH(
        {
          World world(Config::with_nodes(2, mode));
          world.spawn(0, [&](Context& ctx) -> Fiber {
            const Gva bogus = gas::Gva::make(Dist::kCyclic, 0, 99, 0, 0);
            co_await memput_value<std::uint64_t>(ctx, bogus, 1);
          });
          world.run();
        },
        "") << gas::to_string(mode);
  }
}

TEST(FailureInjection, BlockCrossingAccessAborts) {
  World world(Config::with_nodes(2, GasMode::kAgasNet));
  EXPECT_DEATH(
      {
        World w(Config::with_nodes(2, GasMode::kAgasNet));
        w.spawn(0, [&](Context& ctx) -> Fiber {
          const Gva base = alloc_cyclic(ctx, 2, 256);
          std::vector<std::byte> big(300);  // crosses into the next block
          co_await memput(ctx, base, big);
        });
        w.run();
      },
      "boundary");
}

TEST(FailureInjection, UnknownActionAborts) {
  EXPECT_DEATH(
      {
        World world(Config::with_nodes(2, GasMode::kPgas));
        world.spawn(0, [&](Context& ctx) -> Fiber {
          ctx.send(1, static_cast<rt::ActionId>(9999), {});
          co_return;
        });
        world.run();
      },
      "unknown action");
}

TEST(FailureInjection, TinyTlbUnderMigrationChurnStaysCorrect) {
  // 8-entry NIC TLB, continuous migration churn, randomized traffic: the
  // system must stay correct (values never lost) no matter how much the
  // translation state thrashes.
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  cfg.agas_net.tlb_capacity = 8;
  cfg.machine.mem_bytes_per_node = 4u << 20;
  World world(cfg);
  bool done = false;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 32, 512);
    util::Rng rng(5150);
    std::vector<std::uint64_t> shadow(32 * 512 / 8, 0);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t w = rng.below(shadow.size());
      const Gva addr = base.advanced(static_cast<std::int64_t>(w) * 8, 512);
      switch (rng.below(3)) {
        case 0: {
          const std::uint64_t v = rng.next();
          co_await memput_value<std::uint64_t>(ctx, addr, v);
          shadow[w] = v;
          break;
        }
        case 1: {
          const auto v = co_await memget_value<std::uint64_t>(ctx, addr);
          EXPECT_EQ(v, shadow[w]) << "word " << w << " iter " << i;
          break;
        }
        case 2:
          co_await migrate(ctx, addr, static_cast<int>(rng.below(8)));
          break;
      }
    }
    done = true;
  });
  world.run();
  EXPECT_TRUE(done);
  // The churn must actually have evicted translations.
  std::uint64_t evictions = 0;
  const auto& agas = dynamic_cast<const gas::AgasNet&>(world.gas());
  for (int n = 0; n < 8; ++n) evictions += agas.tlb(n).evictions();
  EXPECT_GT(evictions, 0u);
}

TEST(FailureInjection, TinySwCacheUnderChurnStaysCorrect) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasSw);
  cfg.gas_costs.sw_cache_capacity = 4;
  cfg.machine.mem_bytes_per_node = 4u << 20;
  World world(cfg);
  bool done = false;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 32, 512);
    util::Rng rng(6001);
    std::vector<std::uint64_t> shadow(32 * 512 / 8, 0);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t w = rng.below(shadow.size());
      const Gva addr = base.advanced(static_cast<std::int64_t>(w) * 8, 512);
      if (rng.chance(0.1)) {
        co_await migrate(ctx, addr, static_cast<int>(rng.below(8)));
      } else if (rng.chance(0.5)) {
        const std::uint64_t v = rng.next();
        co_await memput_value<std::uint64_t>(ctx, addr, v);
        shadow[w] = v;
      } else {
        const auto v = co_await memget_value<std::uint64_t>(ctx, addr);
        EXPECT_EQ(v, shadow[w]) << "word " << w;
      }
    }
    done = true;
  });
  world.run();
  EXPECT_TRUE(done);
}

TEST(FailureInjection, MigrationStormOnOneBlockSerializes) {
  // 32 concurrent migration requests against one block from every rank;
  // they must chain without deadlock and the block must stay readable.
  for (GasMode mode : {GasMode::kAgasSw, GasMode::kAgasNet}) {
    World world(Config::with_nodes(8, mode));
    std::uint64_t final_value = 0;
    world.spawn(0, [&](Context& ctx) -> Fiber {
      const Gva block = alloc_cyclic(ctx, 1, 1024);
      co_await memput_value<std::uint64_t>(ctx, block, 0x5ca1ab1e);
      rt::AndGate gate(32);
      const rt::LcoRef gref = ctx.make_ref(gate);
      util::Rng rng(7777);
      for (int i = 0; i < 32; ++i) {
        const int from = static_cast<int>(rng.below(8));
        const int to = static_cast<int>(rng.below(8));
        ctx.spawn(from, [block, to, gref](Context& c) -> Fiber {
          co_await migrate(c, block, to);
          c.set_lco(gref);
        });
      }
      co_await gate;
      final_value = co_await memget_value<std::uint64_t>(ctx, block);
    });
    world.run();
    EXPECT_EQ(final_value, 0x5ca1ab1eu) << gas::to_string(mode);
  }
}

}  // namespace
}  // namespace nvgas
