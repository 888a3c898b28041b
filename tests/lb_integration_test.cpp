// End-to-end tests of the adaptive migration subsystem: an 8-node world
// with every block born on rank 0 and per-rank affinity traffic must
// converge (blocks leave the overloaded node) under every active policy,
// with the protocol invariant observer attached the whole time; on an
// immobile manager the balancer must be a byte-identical no-op.
#include <gtest/gtest.h>

#include <set>

#include "core/nvgas.hpp"
#include "gas/invariants.hpp"
#include "lb/balancer.hpp"

namespace nvgas {
namespace {

constexpr int kNodes = 8;
constexpr int kBlocks = 6;  // all born on rank 0, each hammered by one rank

Config lb_config(GasMode mode, lb::PolicyKind policy) {
  Config cfg = Config::with_nodes(kNodes, mode);
  cfg.lb.policy = policy;
  cfg.lb.epoch_ns = 10'000;
  cfg.lb.decay_shift = 1;
  cfg.lb.max_moves_per_epoch = 4;
  cfg.lb.max_inflight = 2;
  cfg.lb.min_heat = lb::kAccessUnit;
  cfg.lb.benefit_ns_per_access = 20'000;
  return cfg;
}

// Rank 0 hoards kBlocks blocks; rank r (1..kBlocks) hammers block r-1
// with fetch_adds, so each block's heat points at one clear best home.
// Returns the world's trace hash.
std::uint64_t run_skewed(World& world, Gva* base) {
  world.run_spmd([&world, base](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) *base = alloc_local(ctx, kBlocks, 256);
    co_await world.coll().barrier(ctx);
    if (ctx.rank() >= 1 && ctx.rank() <= kBlocks) {
      const Gva mine = base->advanced((ctx.rank() - 1) * 256, 256);
      for (int i = 0; i < 50; ++i) {
        (void)co_await fetch_add(ctx, mine, 1);
        co_await ctx.sleep(2'000);
      }
    }
    co_await world.coll().barrier(ctx);
  });
  return world.engine().trace_hash();
}

class LbConvergenceTest
    : public ::testing::TestWithParam<std::tuple<GasMode, lb::PolicyKind>> {};

std::string param_name(
    const ::testing::TestParamInfo<std::tuple<GasMode, lb::PolicyKind>>& info) {
  const auto [mode, policy] = info.param;
  std::string s = mode == GasMode::kAgasSw ? "sw" : "net";
  return s + "_" + lb::to_string(policy);
}

TEST_P(LbConvergenceTest, SkewedLoadConvergesUnderInvariantObserver) {
  const auto [mode, policy] = GetParam();
  World world(lb_config(mode, policy));
  gas::InvariantObserver obs(world.gas());
  ASSERT_NE(world.balancer(), nullptr);
  ASSERT_TRUE(world.balancer()->active());

  Gva base;
  run_skewed(world, &base);

  // The balancer moved real load off the overloaded node...
  EXPECT_GT(world.balancer()->migrations(), 0u);
  int left_on_zero = 0;
  std::set<int> owners;
  for (int b = 0; b < kBlocks; ++b) {
    const int owner =
        world.gas().owner_of(base.advanced(b * 256, 256)).first;
    owners.insert(owner);
    if (owner == 0) ++left_on_zero;
  }
  EXPECT_LE(left_on_zero, kBlocks / 2);
  EXPECT_GT(owners.size(), 1u);
  // ...the throttle held...
  EXPECT_LE(world.balancer()->peak_inflight(), world.config().lb.max_inflight);
  // ...and every protocol invariant (including the balancer's own
  // migration ledger) held through the run.
  EXPECT_EQ(obs.violations(), 0u) << obs.first_violation();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LbConvergenceTest,
    ::testing::Combine(::testing::Values(GasMode::kAgasSw, GasMode::kAgasNet),
                       ::testing::Values(lb::PolicyKind::kGreedy,
                                         lb::PolicyKind::kHysteresis)),
    param_name);

TEST(LbPgas, BalancerIsAByteIdenticalNoop) {
  // Same workload, with and without the balancer configured: on PGAS
  // (no migration support) the traces must be bit-for-bit identical.
  Gva base_plain, base_lb;
  World plain(Config::with_nodes(kNodes, GasMode::kPgas));
  const std::uint64_t h_plain = run_skewed(plain, &base_plain);

  World with_lb(lb_config(GasMode::kPgas, lb::PolicyKind::kHysteresis));
  ASSERT_NE(with_lb.balancer(), nullptr);
  EXPECT_FALSE(with_lb.balancer()->active());
  const std::uint64_t h_lb = run_skewed(with_lb, &base_lb);

  EXPECT_EQ(h_plain, h_lb);
  EXPECT_EQ(with_lb.balancer()->migrations(), 0u);
  EXPECT_EQ(with_lb.balancer()->epochs(), 0u);
  EXPECT_EQ(with_lb.balancer()->heat().accesses(), 0u);
}

TEST(LbHysteresisVsGreedy, FewerMovesAtComparableBalance) {
  // Same skewed workload; hysteresis must not issue more migrations
  // than greedy (threshold + cooldown + half-gap limit all bite).
  Gva base_g, base_h;
  World greedy(lb_config(GasMode::kAgasSw, lb::PolicyKind::kGreedy));
  run_skewed(greedy, &base_g);
  World hyst(lb_config(GasMode::kAgasSw, lb::PolicyKind::kHysteresis));
  run_skewed(hyst, &base_h);
  EXPECT_GT(hyst.balancer()->migrations(), 0u);
  EXPECT_LE(hyst.balancer()->migrations(), greedy.balancer()->migrations());
}

}  // namespace
}  // namespace nvgas
