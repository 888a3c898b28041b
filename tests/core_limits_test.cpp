// Node-count limits: the largest machine the GVA format can address runs
// end to end under every address-space manager, and one node more is
// rejected up front.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/nvgas.hpp"
#include "net/reliability.hpp"

namespace nvgas {
namespace {

class LimitsTest : public ::testing::TestWithParam<GasMode> {};

std::string mode_name(const ::testing::TestParamInfo<GasMode>& info) {
  std::string name = to_string(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

// alloc_cyclic, one remote fetch_add per rank, a barrier, and a check of
// every value, on kMaxNodes nodes.
TEST_P(LimitsTest, MaxNodesRunFetchAddAndBarrier) {
  constexpr int kNodes = Gva::kMaxNodes;
  World world(Config::with_nodes(kNodes, GetParam()));
  Gva table;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    table = alloc_cyclic(ctx, kNodes, 64);
    co_return;
  });
  world.run();

  std::vector<std::uint64_t> old(kNodes, ~std::uint64_t{0});
  std::vector<std::uint64_t> seen(kNodes, 0);
  world.run_spmd([&](Context& ctx) -> Fiber {
    const int r = ctx.rank();
    const int next = (r + 1) % kNodes;  // block `next` is homed on rank `next`
    old[static_cast<std::size_t>(r)] = co_await fetch_add(
        ctx, table.advanced(next * 64, 64), static_cast<std::uint64_t>(r + 1));
    co_await world.coll().barrier(ctx);
    seen[static_cast<std::size_t>(r)] =
        co_await memget_value<std::uint64_t>(ctx, table.advanced(r * 64, 64));
  });

  for (int r = 0; r < kNodes; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(old[i], 0u) << "rank " << r;
    // Block r was bumped once, by rank r - 1, with r (block 0 by the last
    // rank, with kNodes).
    EXPECT_EQ(seen[i], static_cast<std::uint64_t>(r == 0 ? kNodes : r))
        << "rank " << r;
  }
  // Without a fault plan no frame enters a reliability channel, so no
  // node holds per-peer channel state.
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(world.endpoints().reliability().at(n).peer_records(), 0u)
        << "node " << n;
  }
}

// alloc -> free -> alloc of two blocks per rank on kMaxNodes nodes: the
// free returns every byte, and the second allocation gets a fresh id.
TEST_P(LimitsTest, MaxNodesAllocFreeAlloc) {
  constexpr int kNodes = Gva::kMaxNodes;
  World world(Config::with_nodes(kNodes, GetParam()));
  Gva first;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    first = alloc_cyclic(ctx, 2 * kNodes, 64);
    co_await memput_value<std::uint64_t>(ctx, first.advanced(64, 64), 1);
    free_alloc(ctx, first);
  });
  world.run();
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(world.heap().store(n).bytes_in_use(), 0u) << "node " << n;
  }
  EXPECT_EQ(world.gas().audit_translation(), "");
  EXPECT_EQ(world.gas().audit_quiescent(), "");

  Gva second;
  std::uint64_t got = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    second = alloc_cyclic(ctx, 2 * kNodes, 64);
    const Gva last = second.advanced((2 * kNodes - 1) * 64, 64);
    (void)co_await fetch_add(ctx, last, 5);
    got = co_await memget_value<std::uint64_t>(ctx, last);
  });
  world.run();
  EXPECT_NE(second.alloc_id(), first.alloc_id());
  EXPECT_FALSE(world.heap().contains(first));
  EXPECT_TRUE(world.heap().contains(second));
  EXPECT_EQ(got, 5u);
  EXPECT_EQ(world.gas().audit_translation(), "");
  EXPECT_EQ(world.gas().audit_quiescent(), "");
}

INSTANTIATE_TEST_SUITE_P(AllModes, LimitsTest,
                         ::testing::Values(GasMode::kPgas, GasMode::kAgasSw,
                                           GasMode::kAgasNet),
                         mode_name);

TEST(Limits, WorldRejectsOneNodeBeyondTheGvaCreatorField) {
  EXPECT_DEATH(World(Config::with_nodes(Gva::kMaxNodes + 1)),
               "node count exceeds the GVA creator field");
}

}  // namespace
}  // namespace nvgas
