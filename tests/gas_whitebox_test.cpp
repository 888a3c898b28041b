// White-box tests of the address-space managers' internal state machines:
// directory sharers, cache invalidation, NIC TLB entry roles (pinned /
// owned / hint), and the closed-form cost model.
#include <gtest/gtest.h>

#include <string>

#include "core/nvgas.hpp"

namespace nvgas {
namespace {

// --- software AGAS internals ------------------------------------------------

TEST(AgasSwWhitebox, DirectoryTracksSharersAsTheyResolve) {
  World world(Config::with_nodes(8, GasMode::kAgasSw));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 3) block = block.advanced(256, 256);
    rt::AndGate gate(4);
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r : {1, 2, 5, 7}) {
      ctx.spawn(r, [block, gref](Context& c) -> Fiber {
        (void)co_await memget_value<std::uint64_t>(c, block);
        c.set_lco(gref);
      });
    }
    co_await gate;
  });
  world.run();
  const auto& sw = dynamic_cast<const gas::AgasSw&>(world.gas());
  const auto& entry = sw.directory(3).at(block.block_key());
  EXPECT_EQ(entry.sharers, (std::set<int>{1, 2, 5, 7}));
  EXPECT_EQ(entry.owner, 3);
  EXPECT_FALSE(entry.moving);
  EXPECT_EQ(entry.generation, 0u);
}

TEST(AgasSwWhitebox, MigrationBumpsGenerationAndClearsSharers) {
  World world(Config::with_nodes(8, GasMode::kAgasSw));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 2) block = block.advanced(256, 256);
    // Two sharers warm up.
    rt::AndGate gate(2);
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r : {4, 6}) {
      ctx.spawn(r, [block, gref](Context& c) -> Fiber {
        (void)co_await memget_value<std::uint64_t>(c, block);
        c.set_lco(gref);
      });
    }
    co_await gate;
    co_await migrate(ctx, block, 5);
  });
  world.run();
  const auto& sw = dynamic_cast<const gas::AgasSw&>(world.gas());
  const auto& entry = sw.directory(2).at(block.block_key());
  EXPECT_EQ(entry.owner, 5);
  EXPECT_EQ(entry.generation, 1u);
  EXPECT_TRUE(entry.sharers.empty());
  EXPECT_FALSE(entry.moving);
  // Both sharers' caches were invalidated.
  EXPECT_FALSE(const_cast<gas::AgasSw&>(sw).cache(4).size() > 0 &&
               world.counters().sw_cache_invalidations < 2);
  EXPECT_GE(world.counters().sw_cache_invalidations, 2u);
}

TEST(AgasSwWhitebox, CacheHitRatioMatchesCounters) {
  Config cfg = Config::with_nodes(4, GasMode::kAgasSw);
  World world(cfg);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 4, 256);
    Gva remote = base;
    while (remote.home(4) == 0) remote = remote.advanced(256, 256);
    for (int i = 0; i < 10; ++i) {
      (void)co_await memget_value<std::uint64_t>(ctx, remote);
    }
  });
  world.run();
  // First access missed, nine hit.
  EXPECT_EQ(world.counters().sw_cache_misses, 1u);
  EXPECT_EQ(world.counters().sw_cache_hits, 9u);
}

// --- network-managed AGAS internals -----------------------------------------

TEST(AgasNetWhitebox, TlbRolesThroughAMigration) {
  World world(Config::with_nodes(8, GasMode::kAgasNet));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 2) block = block.advanced(256, 256);
    co_await memput_value<std::uint64_t>(ctx, block, 1);  // warm rank 0
    co_await migrate(ctx, block, 6);
    co_await migrate(ctx, block, 4);
  });
  world.run();
  const auto& net = dynamic_cast<const core::AgasNet&>(world.gas());
  const auto key = block.block_key();

  // Home (2): pinned, authoritative, generation 2.
  const auto home_e = const_cast<net::NicTlb&>(net.tlb(2)).lookup(key);
  ASSERT_TRUE(home_e.has_value());
  EXPECT_TRUE(home_e->pinned);
  EXPECT_EQ(home_e->owner, 4);
  EXPECT_EQ(home_e->generation, 2u);
  EXPECT_FALSE(home_e->in_flight);

  // Current owner (4): pinned owned entry.
  const auto owner_e = const_cast<net::NicTlb&>(net.tlb(4)).lookup(key);
  ASSERT_TRUE(owner_e.has_value());
  EXPECT_TRUE(owner_e->pinned);
  EXPECT_EQ(owner_e->owner, 4);

  // Previous owner (6): unpinned forwarding hint to 4.
  const auto hint_e = const_cast<net::NicTlb&>(net.tlb(6)).lookup(key);
  ASSERT_TRUE(hint_e.has_value());
  EXPECT_FALSE(hint_e->pinned);
  EXPECT_EQ(hint_e->owner, 4);

  // Stale source (0): unpinned cached entry pointing at the FIRST
  // location it learned (the home, who owned at warmup).
  const auto src_e = const_cast<net::NicTlb&>(net.tlb(0)).lookup(key);
  ASSERT_TRUE(src_e.has_value());
  EXPECT_FALSE(src_e->pinned);
  EXPECT_EQ(src_e->owner, 2);
}

TEST(AgasNetWhitebox, PiggybackRepairsStaleSourceAfterOneAccess) {
  World world(Config::with_nodes(8, GasMode::kAgasNet));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 1) block = block.advanced(256, 256);
    co_await memput_value<std::uint64_t>(ctx, block, 1);
    co_await migrate(ctx, block, 5);
    (void)co_await memget_value<std::uint64_t>(ctx, block);  // stale → fwd
  });
  world.run();
  const auto& net = dynamic_cast<const core::AgasNet&>(world.gas());
  const auto e = const_cast<net::NicTlb&>(net.tlb(0)).lookup(block.block_key());
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->owner, 5);  // repaired by the ack's piggyback
  EXPECT_GE(world.counters().nic_forwards, 1u);
}

// While a block is in flight the home answers a resolve with the old
// owner. When rank 2, the destination of the move, resolves during the
// move and that reply lands after rank 2's NIC installed its pinned owner
// entry, the piggybacked copy must not replace it: an unpinned {owner 1}
// entry at the new owner bounces NIC ops until the forwarding watchdog
// fires, and ping-pongs apply() parcels between ranks 1 and 2 forever.
// The sweep over the resolve's issue time covers the whole race window.
TEST(AgasNetWhitebox, LateResolveReplyKeepsTheNewOwnersPinnedEntry) {
  int failed = 0;
  std::string first;
  for (sim::Time delay = 0; delay <= 20'000; delay += 20) {
    Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
    cfg.machine.mem_bytes_per_node = 1u << 20;
    World world(cfg);
    int applied = 0;
    const auto poke = world.runtime().actions().add(
        "race.poke", [&applied](Context&, int, util::Buffer) { ++applied; });
    Gva block;
    world.spawn(1, [&](Context& ctx) -> Fiber {
      block = alloc_cyclic(ctx, 8, 256);
      while (block.home(8) != 1) block = block.advanced(256, 256);
      ctx.spawn(2, [&block, delay](Context& c) -> Fiber {
        co_await c.sleep(delay);
        (void)co_await resolve(c, block);
      });
      co_await migrate(ctx, block, 2);
    });
    world.run();
    ASSERT_EQ(world.gas().owner_of(block).first, 2);
    const auto& agas = dynamic_cast<const core::AgasNet&>(world.gas());
    const net::TlbEntry* e = agas.tlb(2).peek(block.block_key());
    const bool pinned = e != nullptr && e->pinned && e->owner == 2;

    // One apply from rank 3, and one memget from rank 2 unless its entry
    // is already wrong (that memget would abort at the watchdog).
    bool got = false;
    world.spawn(3, [&](Context& c) -> Fiber {
      co_await apply(c, block, poke, {});
    });
    if (pinned) {
      world.spawn(2, [&](Context& c) -> Fiber {
        (void)co_await memget_value<std::uint64_t>(c, block);
        got = true;
      });
    }
    world.run(100'000);
    if (!pinned || !got || applied != 1 || !world.engine().idle()) {
      if (failed++ == 0) {
        first = "resolve at " + std::to_string(delay) + " ns: rank 2 holds " +
                (e == nullptr ? "no entry"
                              : "{owner " + std::to_string(e->owner) +
                                    ", pinned " + std::to_string(e->pinned) +
                                    "}") +
                ", apply ran " + std::to_string(applied) + " time(s)";
      }
    }
  }
  EXPECT_EQ(failed, 0) << "first failure: " << first;
}

TEST(AgasNetWhitebox, FreeRemovesEveryEntry) {
  World world(Config::with_nodes(4, GasMode::kAgasNet));
  Gva base;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, 4, 256);
    for (int b = 0; b < 4; ++b) {
      co_await memput_value<std::uint64_t>(ctx, base.advanced(b * 256, 256), 1);
    }
    free_alloc(ctx, base);
  });
  world.run();
  const auto& net = dynamic_cast<const core::AgasNet&>(world.gas());
  for (int n = 0; n < 4; ++n) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_FALSE(const_cast<net::NicTlb&>(net.tlb(n))
                       .lookup(base.advanced(b * 256, 256).block_key())
                       .has_value());
    }
  }
}

// --- closed-form cost model ---------------------------------------------------

TEST(CostModel, PgasRemoteMemgetMatchesAnalyticFormula) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  World world(cfg);
  sim::Time measured = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 2, 64);
    Gva remote = base;
    if (remote.home(2) != 1) remote = remote.advanced(64, 64);
    const sim::Time t0 = ctx.now();
    (void)co_await memget_value<std::uint64_t>(ctx, remote);
    measured = ctx.now() - t0;
  });
  world.run();

  // Analytic: translate + o_send, request (g + hdr·G + L + g),
  // target cp (dma + len·G_mem), reply (g + (hdr+len)·G + L + g),
  // source cp (dma + len·G_mem), fiber resume.
  const std::uint64_t len = 8;
  auto wire = [](std::uint64_t bytes) {
    return sim::kNicGapNs + sim::bytes_time(bytes, sim::kByteTimeNs) +
           sim::kWireLatencyNs + sim::kNicGapNs;
  };
  auto dma = [](std::uint64_t bytes) {
    return sim::kNicDmaNs + sim::bytes_time(bytes, sim::kMembusByteNs);
  };
  const sim::Time expected =
      gas::kPgasTranslateNs + sim::kCpuSendOverheadNs +
      wire(net::kRmaHeaderBytes) + dma(len) +
      wire(net::kRmaHeaderBytes + len) + dma(len) + rt::kFiberResumeNs;
  EXPECT_EQ(measured, expected);
}

TEST(CostModel, ParcelOneWayMatchesAnalyticFormula) {
  Config cfg = Config::with_nodes(2, GasMode::kPgas);
  World world(cfg);
  sim::Time handled_at = 0;
  sim::Time sent_at = 0;
  const auto act = world.runtime().actions().add(
      "cm.sink", [&](Context& c, int, util::Buffer) { handled_at = c.now(); });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    sent_at = ctx.now();
    ctx.send(1, act, rt::pack_args(std::uint64_t{1}));
    co_return;
  });
  world.run();

  const std::uint64_t payload = sizeof(rt::ActionId) + 8;
  const sim::Time expected =
      sent_at + sim::kCpuSendOverheadNs + sim::kNicGapNs +
      sim::bytes_time(net::kParcelHeaderBytes + payload, sim::kByteTimeNs) +
      sim::kWireLatencyNs + sim::kNicGapNs + sim::kCpuRecvOverheadNs +
      rt::kActionDispatchNs;
  EXPECT_EQ(handled_at, expected);
}

}  // namespace
}  // namespace nvgas
