// free_alloc and memcpy_gva across all three managers.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"

namespace nvgas {
namespace {

class FreeMemcpyTest : public ::testing::TestWithParam<GasMode> {
 protected:
  Config make_config() const {
    Config cfg = Config::with_nodes(8, GetParam());
    cfg.machine.mem_bytes_per_node = 8u << 20;
    return cfg;
  }
};

std::string mode_name(const ::testing::TestParamInfo<GasMode>& info) {
  switch (info.param) {
    case GasMode::kPgas: return "pgas";
    case GasMode::kAgasSw: return "agassw";
    case GasMode::kAgasNet: return "agasnet";
  }
  return "x";
}

TEST_P(FreeMemcpyTest, FreeReturnsStorageEverywhere) {
  World world(make_config());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    std::vector<std::size_t> before(8);
    for (int n = 0; n < 8; ++n) before[n] = world.heap().store(n).bytes_in_use();
    const Gva base = alloc_cyclic(ctx, 16, 4096);
    co_await memput_value<std::uint64_t>(ctx, base, 1);
    free_alloc(ctx, base);
    for (int n = 0; n < 8; ++n) {
      EXPECT_EQ(world.heap().store(n).bytes_in_use(), before[n]) << "node " << n;
    }
    EXPECT_FALSE(world.heap().contains(base));
  });
  world.run();
}

TEST_P(FreeMemcpyTest, FreeAfterMigrationReleasesAtCurrentOwner) {
  if (GetParam() == GasMode::kPgas) GTEST_SKIP();
  World world(make_config());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 4096);
    co_await migrate(ctx, base, 5);
    const auto used_at_5 = world.heap().store(5).bytes_in_use();
    free_alloc(ctx, base);
    EXPECT_EQ(world.heap().store(5).bytes_in_use() + 4096, used_at_5);
  });
  world.run();
}

TEST_P(FreeMemcpyTest, ReuseAfterFreeWorks) {
  World world(make_config());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    for (int round = 0; round < 5; ++round) {
      const Gva base = alloc_cyclic(ctx, 8, 1024);
      co_await memput_value<std::uint64_t>(
          ctx, base.advanced(1024, 1024), static_cast<std::uint64_t>(round));
      const auto v = co_await memget_value<std::uint64_t>(
          ctx, base.advanced(1024, 1024));
      EXPECT_EQ(v, static_cast<std::uint64_t>(round));
      free_alloc(ctx, base);
    }
  });
  world.run();
}

TEST_P(FreeMemcpyTest, AccessAfterFreeAborts) {
  World world(make_config());
  EXPECT_DEATH(
      {
        World w2(make_config());
        w2.spawn(0, [&](Context& ctx) -> Fiber {
          const Gva base = alloc_cyclic(ctx, 2, 256);
          free_alloc(ctx, base);
          co_await memput_value<std::uint64_t>(ctx, base, 1);  // UB → abort
        });
        w2.run();
      },
      "");
}

// resolve checks its address like every other front door, so a freed
// GVA aborts in every mode (pgas used to answer with its arithmetic home).
TEST_P(FreeMemcpyTest, ResolveAfterFreeAborts) {
  EXPECT_DEATH(
      {
        World w2(make_config());
        w2.spawn(0, [&](Context& ctx) -> Fiber {
          const Gva base = alloc_cyclic(ctx, 2, 256);
          free_alloc(ctx, base);
          (void)co_await resolve(ctx, base.advanced(256, 256));
        });
        w2.run();
      },
      "unknown allocation id");
}

TEST_P(FreeMemcpyTest, MemcpyMovesDataBetweenRemoteBlocks) {
  World world(make_config());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 8, 4096);
    const Gva src = base.advanced(1 * 4096 + 64, 4096);
    const Gva dst = base.advanced(5 * 4096 + 128, 4096);
    std::vector<std::byte> payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::byte>((i * 7) & 0xff);
    }
    co_await memput(ctx, src, payload);
    co_await memcpy_gva(ctx, dst, src, 512);
    const auto out = co_await memget(ctx, dst, 512);
    EXPECT_EQ(out, payload);
    // Source is untouched.
    const auto still = co_await memget(ctx, src, 512);
    EXPECT_EQ(still, payload);
  });
  world.run();
}

TEST_P(FreeMemcpyTest, MemcpyWithinSameBlock) {
  World world(make_config());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 2, 4096);
    co_await memput_value<std::uint64_t>(ctx, base, 0x1234);
    co_await memcpy_gva(ctx, base.advanced(256, 4096), base, 8);
    const auto v = co_await memget_value<std::uint64_t>(ctx, base.advanced(256, 4096));
    EXPECT_EQ(v, 0x1234u);
  });
  world.run();
}

TEST_P(FreeMemcpyTest, MemcpyToMigratedBlock) {
  if (GetParam() == GasMode::kPgas) GTEST_SKIP();
  World world(make_config());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 2, 1024);
    const Gva src = base;
    const Gva dst = base.advanced(1024, 1024);
    co_await memput_value<std::uint64_t>(ctx, src, 77);
    co_await migrate(ctx, dst, 6);
    co_await memcpy_gva(ctx, dst, src, 8);
    const auto v = co_await memget_value<std::uint64_t>(ctx, dst);
    EXPECT_EQ(v, 77u);
    const auto [owner, lva] = world.gas().owner_of(dst);
    EXPECT_EQ(owner, 6);
    EXPECT_EQ(world.fabric().mem(6).load<std::uint64_t>(lva), 77u);
  });
  world.run();
}

INSTANTIATE_TEST_SUITE_P(AllModes, FreeMemcpyTest,
                         ::testing::Values(GasMode::kPgas, GasMode::kAgasSw,
                                           GasMode::kAgasNet),
                         mode_name);

}  // namespace
}  // namespace nvgas
