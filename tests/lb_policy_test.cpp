// Decision-layer tests for the adaptive migration subsystem: heat
// accounting math, policy plan properties (hysteresis cannot ping-pong),
// and the balancer's throttle and cost gate.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"
#include "lb/balancer.hpp"
#include "lb/heat.hpp"
#include "lb/policy.hpp"

namespace nvgas {
namespace {

using lb::kAccessUnit;

// --- HeatMap arithmetic ----------------------------------------------------

TEST(HeatMap, AccumulatesFixedPointUnitsPerAccess) {
  lb::HeatMap hm(4);
  hm.on_local_access(0, 0x10);
  hm.on_remote_access(2, 0x10);
  hm.on_remote_access(2, 0x10);
  hm.on_remote_access(3, 0x20);
  EXPECT_EQ(hm.heat_of(0x10), 3 * kAccessUnit);
  EXPECT_EQ(hm.heat_of(0x20), 1 * kAccessUnit);
  EXPECT_EQ(hm.heat_of(0x30), 0u);
  EXPECT_EQ(hm.accesses(), 4u);
  EXPECT_EQ(hm.blocks(), 2u);

  std::vector<lb::BlockHeat> snap;
  hm.snapshot(snap);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].key, 0x10u);  // ordered by key
  EXPECT_EQ(snap[1].key, 0x20u);
  EXPECT_EQ(snap[0].by_node[0], kAccessUnit);
  EXPECT_EQ(snap[0].by_node[1], 0u);
  EXPECT_EQ(snap[0].by_node[2], 2 * kAccessUnit);
}

TEST(HeatMap, DecayHalvesAndEventuallyRecycles) {
  lb::HeatMap hm(2);
  for (int i = 0; i < 8; ++i) hm.on_remote_access(1, 0x40);
  EXPECT_EQ(hm.heat_of(0x40), 8 * kAccessUnit);

  hm.decay(1);
  EXPECT_EQ(hm.heat_of(0x40), 4 * kAccessUnit);
  hm.decay(2);
  EXPECT_EQ(hm.heat_of(0x40), 1 * kAccessUnit);

  // EWMA shape: decay then fresh accesses mix old and new signal.
  hm.on_remote_access(1, 0x40);
  EXPECT_EQ(hm.heat_of(0x40), 2 * kAccessUnit);

  // Drive to zero: the entry is recycled, not leaked.
  for (int i = 0; i < 12; ++i) hm.decay(1);
  EXPECT_EQ(hm.heat_of(0x40), 0u);
  EXPECT_EQ(hm.blocks(), 0u);
  // accesses() is monotonic bookkeeping, not decayed.
  EXPECT_EQ(hm.accesses(), 9u);

  // A recycled slot starts from scratch (per-node vector zeroed).
  hm.on_local_access(0, 0x50);
  std::vector<lb::BlockHeat> snap;
  hm.snapshot(snap);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].heat, kAccessUnit);
  EXPECT_EQ(snap[0].by_node[0], kAccessUnit);
  EXPECT_EQ(snap[0].by_node[1], 0u);
}

TEST(HeatMap, FreedBlockDropsOut) {
  lb::HeatMap hm(2);
  hm.on_remote_access(1, 0x40);
  hm.on_remote_access(1, 0x60);
  hm.on_block_freed(0x40);
  EXPECT_EQ(hm.heat_of(0x40), 0u);
  EXPECT_EQ(hm.blocks(), 1u);
}

// --- policy plan properties ------------------------------------------------

// A two-node world with a single block whose heat comes 50/50 from both
// nodes. Whoever owns it carries the full load; moving it just mirrors
// the imbalance. Greedy (move limit = full gap) happily proposes the
// move from either side — the documented ping-pong weakness. Hysteresis
// (move limit = gap/2) can never select it, from either placement.
TEST(Policy, HysteresisNeverPingPongsAnEvenlySharedBlock) {
  const std::uint64_t heat = 100 * kAccessUnit;
  const std::uint32_t half = static_cast<std::uint32_t>(heat / 2);
  const std::uint32_t by_node[2] = {half, half};
  lb::LbConfig cfg;
  cfg.min_heat = 2 * kAccessUnit;

  const auto snapshot_with_owner = [&](int owner) {
    lb::Snapshot snap;
    snap.ranks = 2;
    snap.epoch = 7;
    snap.blocks.push_back(lb::PlacedBlock{0x80, owner, heat, by_node, false});
    snap.node_load = {owner == 0 ? heat : 0, owner == 1 ? heat : 0};
    return snap;
  };

  const auto greedy = lb::make_policy(lb::PolicyKind::kGreedy);
  const auto hyst = lb::make_policy(lb::PolicyKind::kHysteresis);
  std::vector<lb::Move> plan;

  for (const int owner : {0, 1}) {
    const lb::Snapshot snap = snapshot_with_owner(owner);

    plan.clear();
    greedy->plan(snap, cfg, plan);
    ASSERT_EQ(plan.size(), 1u) << "greedy moves the block from node " << owner;
    EXPECT_EQ(plan[0].key, 0x80u);
    EXPECT_EQ(plan[0].dst, 1 - owner);

    plan.clear();
    hyst->plan(snap, cfg, plan);
    EXPECT_TRUE(plan.empty())
        << "hysteresis proposed a 50/50 block from node " << owner;
  }
}

TEST(Policy, HysteresisThresholdIgnoresSmallImbalance) {
  // Load 120 vs 100 is inside the 150% band: no move.
  const std::uint32_t by_node[2] = {0, static_cast<std::uint32_t>(20 * kAccessUnit)};
  lb::Snapshot snap;
  snap.ranks = 2;
  snap.blocks.push_back(
      lb::PlacedBlock{0x10, 0, 20 * kAccessUnit, by_node, false});
  snap.node_load = {120 * kAccessUnit, 100 * kAccessUnit};
  lb::LbConfig cfg;
  std::vector<lb::Move> plan;
  lb::make_policy(lb::PolicyKind::kHysteresis)->plan(snap, cfg, plan);
  EXPECT_TRUE(plan.empty());
}

// --- balancer throttle and cost gate (end-to-end) --------------------------

// Rank 0 hoards `blocks` blocks; every other rank hammers its own block
// so each becomes hot with a clear best destination.
void skewed_workload(World& world, Gva* base, int blocks, int rounds) {
  world.run_spmd([&world, base, blocks, rounds](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) {
      *base = alloc_local(ctx, static_cast<std::uint32_t>(blocks), 256);
    }
    co_await world.coll().barrier(ctx);
    if (ctx.rank() != 0 && ctx.rank() <= blocks) {
      const Gva mine = base->advanced((ctx.rank() - 1) * 256, 256);
      for (int i = 0; i < rounds; ++i) {
        (void)co_await fetch_add(ctx, mine, 1);
        co_await ctx.sleep(2'000);
      }
    }
    co_await world.coll().barrier(ctx);
  });
}

TEST(Balancer, ThrottleCapsInflightMigrations) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasSw);
  cfg.lb.policy = lb::PolicyKind::kGreedy;
  cfg.lb.epoch_ns = 10'000;
  cfg.lb.max_moves_per_epoch = 8;
  cfg.lb.max_inflight = 1;
  cfg.lb.min_heat = kAccessUnit;
  cfg.lb.benefit_ns_per_access = 1'000'000;  // gate never rejects
  World world(cfg);
  ASSERT_NE(world.balancer(), nullptr);

  Gva base;
  skewed_workload(world, &base, 6, 40);

  EXPECT_GT(world.balancer()->migrations(), 0u);
  EXPECT_LE(world.balancer()->peak_inflight(), 1u);
  // The plan really was wider than the window: entries were deferred.
  EXPECT_GT(world.counters().lb_throttled, 0u);
}

TEST(Balancer, CostGateArithmetic) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasSw);
  cfg.lb.policy = lb::PolicyKind::kGreedy;
  cfg.lb.benefit_ns_per_access = 600;
  World world(cfg);
  ASSERT_NE(world.balancer(), nullptr);
  const lb::Balancer& b = *world.balancer();

  // Zero heat can never pay for a move; enormous heat always does.
  EXPECT_FALSE(b.profitable(0, 256));
  EXPECT_TRUE(b.profitable(100'000 * kAccessUnit, 256));
  // Monotonic in block size: if some heat cannot pay for a big block,
  // the same heat still pays for a tiny one or the gate is broken.
  std::uint64_t h = kAccessUnit;
  while (!b.profitable(h, 64)) h += kAccessUnit;
  EXPECT_FALSE(b.profitable(h - kAccessUnit, 64));  // exact threshold
  EXPECT_TRUE(b.profitable(h, 64));
  EXPECT_FALSE(b.profitable(h, 1u << 20));  // same heat, huge block: no
}

TEST(Balancer, CostGateRejectsUnprofitableMoves) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasSw);
  cfg.lb.policy = lb::PolicyKind::kGreedy;
  cfg.lb.epoch_ns = 10'000;
  cfg.lb.min_heat = kAccessUnit;
  cfg.lb.benefit_ns_per_access = 0;  // migration can never pay off
  World world(cfg);
  ASSERT_NE(world.balancer(), nullptr);

  Gva base;
  skewed_workload(world, &base, 6, 40);

  EXPECT_EQ(world.balancer()->migrations(), 0u);
  EXPECT_GT(world.balancer()->rejected_cost(), 0u);
  EXPECT_EQ(world.counters().lb_migrations, 0u);
}

TEST(Balancer, InertOnImmobileManagerAndNonePolicy) {
  Config cfg = Config::with_nodes(4, GasMode::kPgas);
  cfg.lb.policy = lb::PolicyKind::kHysteresis;
  World world(cfg);
  ASSERT_NE(world.balancer(), nullptr);
  EXPECT_FALSE(world.balancer()->active());
  // World does not even construct one for the `none` policy.
  Config cfg2 = Config::with_nodes(4, GasMode::kAgasSw);
  World world2(cfg2);
  EXPECT_EQ(world2.balancer(), nullptr);
}

}  // namespace
}  // namespace nvgas
