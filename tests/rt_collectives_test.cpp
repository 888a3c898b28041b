// Collective algorithms: flat vs binomial tree.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"

namespace nvgas::rt {
namespace {

TEST(BinomialTree, ParentClearsLowestBit) {
  EXPECT_EQ(Collectives::tree_parent(1), 0);
  EXPECT_EQ(Collectives::tree_parent(2), 0);
  EXPECT_EQ(Collectives::tree_parent(3), 2);
  EXPECT_EQ(Collectives::tree_parent(6), 4);
  EXPECT_EQ(Collectives::tree_parent(7), 6);
  EXPECT_EQ(Collectives::tree_parent(12), 8);
}

TEST(BinomialTree, ChildrenInverseOfParent) {
  for (int ranks : {1, 2, 3, 7, 8, 16, 21}) {
    for (int r = 0; r < ranks; ++r) {
      for (int c : Collectives::tree_children(r, ranks)) {
        EXPECT_EQ(Collectives::tree_parent(c), r) << "ranks=" << ranks;
        EXPECT_LT(c, ranks);
      }
    }
    // Every non-root appears exactly once as someone's child.
    std::vector<int> seen(static_cast<std::size_t>(ranks), 0);
    for (int r = 0; r < ranks; ++r) {
      for (int c : Collectives::tree_children(r, ranks)) {
        ++seen[static_cast<std::size_t>(c)];
      }
    }
    EXPECT_EQ(seen[0], 0);
    for (int r = 1; r < ranks; ++r) {
      EXPECT_EQ(seen[static_cast<std::size_t>(r)], 1) << "rank " << r;
    }
  }
}

class CollAlgoTest : public ::testing::TestWithParam<CollAlgo> {
 protected:
  Config make_config(int nodes) const {
    Config cfg = Config::with_nodes(nodes, GasMode::kPgas);
    cfg.coll_algo = GetParam();
    return cfg;
  }
};

std::string algo_name(const ::testing::TestParamInfo<CollAlgo>& info) {
  return to_string(info.param);
}

TEST_P(CollAlgoTest, BarrierHoldsUntilLastArrival) {
  // Non-power-of-two rank count stresses the tree shape.
  World world(make_config(11));
  std::vector<sim::Time> exits(11, 0);
  world.run_spmd([&](Context& ctx) -> Fiber {
    co_await ctx.sleep(static_cast<sim::Time>(ctx.rank()) * 2000);
    co_await world.coll().barrier(ctx);
    exits[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  for (auto t : exits) EXPECT_GE(t, 10u * 2000u);
}

TEST_P(CollAlgoTest, RepeatedBarriersStaySeparated) {
  World world(make_config(8));
  std::vector<int> phase(8, 0);
  int violations = 0;
  world.run_spmd([&](Context& ctx) -> Fiber {
    for (int p = 0; p < 5; ++p) {
      phase[static_cast<std::size_t>(ctx.rank())] = p;
      // Nobody may be more than one phase apart while inside a phase.
      for (int v : phase) {
        if (std::abs(v - p) > 1) ++violations;
      }
      co_await world.coll().barrier(ctx);
    }
  });
  EXPECT_EQ(violations, 0);
}

TEST_P(CollAlgoTest, AllreduceSumExact) {
  World world(make_config(13));
  std::vector<double> results(13, 0);
  world.run_spmd([&](Context& ctx) -> Fiber {
    results[static_cast<std::size_t>(ctx.rank())] = co_await world.coll().allreduce_sum(
        ctx, static_cast<double>(ctx.rank() + 1));
  });
  for (auto v : results) EXPECT_DOUBLE_EQ(v, 91.0);  // 1+..+13
}

TEST_P(CollAlgoTest, SingleRankCollectivesAreTrivial) {
  World world(make_config(1));
  bool done = false;
  world.run_spmd([&](Context& ctx) -> Fiber {
    co_await world.coll().barrier(ctx);
    const double s = co_await world.coll().allreduce_sum(ctx, 5.0);
    EXPECT_DOUBLE_EQ(s, 5.0);
    done = true;
  });
  EXPECT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(Algos, CollAlgoTest,
                         ::testing::Values(CollAlgo::kFlat, CollAlgo::kTree),
                         algo_name);

TEST(CollAlgoCompare, TreeBeatsFlatAtScale) {
  // At 128 ranks, the root's serialized fan-in makes flat barriers slower
  // than the log-depth tree (at small scales the tree's extra depth wins
  // the other way — the crossover is the point).
  auto barrier_time = [](CollAlgo algo) {
    Config cfg = Config::with_nodes(128, GasMode::kPgas);
    cfg.machine.mem_bytes_per_node = 1 << 20;
    cfg.coll_algo = algo;
    World world(cfg);
    sim::Time done = 0;
    world.run_spmd([&](Context& ctx) -> Fiber {
      for (int i = 0; i < 3; ++i) co_await world.coll().barrier(ctx);
      done = std::max(done, ctx.now());
    });
    return done;
  };
  const auto flat = barrier_time(CollAlgo::kFlat);
  const auto tree = barrier_time(CollAlgo::kTree);
  EXPECT_LT(tree, flat);
}

TEST(CollAlgoCompare, TreeSendsFewerMessagesToRoot) {
  auto root_rx = [](CollAlgo algo) {
    Config cfg = Config::with_nodes(16, GasMode::kPgas);
    cfg.coll_algo = algo;
    World world(cfg);
    world.run_spmd([&](Context& ctx) -> Fiber {
      co_await world.coll().barrier(ctx);
    });
    return world.fabric().nic(0).rx_messages();
  };
  // Flat: 16 arrivals hit rank 0 (plus its own loopback release); tree:
  // only its direct children (log2(16) = 4).
  EXPECT_GT(root_rx(CollAlgo::kFlat), 2 * root_rx(CollAlgo::kTree));
}

}  // namespace
}  // namespace nvgas::rt
