// White-box tests of the address-space managers' internal state machines:
// directory sharers, cache invalidation, NIC TLB entry roles (pinned /
// owned / hint), and the closed-form cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/nvgas.hpp"
#include "util/format.hpp"

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
  const auto& entry = sw.directory().at(block);
  EXPECT_EQ(entry.sharers, (std::vector<int>{1, 2, 5, 7}));
  EXPECT_EQ(entry.owner, 3);
  EXPECT_EQ(world.gas().audit_quiescent(), "");
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
  const auto& entry = sw.directory().at(block);
  EXPECT_EQ(entry.owner, 5);
  EXPECT_EQ(entry.generation, 1u);
  EXPECT_TRUE(entry.sharers.empty());
  EXPECT_EQ(world.gas().audit_quiescent(), "");
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

TEST(AgasSwWhitebox, SourceCacheEvictsLeastRecentlyUsed) {
  // A two-entry source cache on rank 0; A, B and C are homed elsewhere.
  // Resolving A, B, A, C touches A after B, so C's insert evicts B.
  Config cfg = Config::with_nodes(4, GasMode::kAgasSw);
  cfg.gas_costs.sw_cache_capacity = 2;
  World world(cfg);
  Gva a;
  Gva b;
  Gva c;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 8, 256);
    const auto homed_at = [&](int home) {
      Gva g = base;
      while (g.home(4) != home) g = g.advanced(256, 256);
      return g;
    };
    a = homed_at(1);
    b = homed_at(2);
    c = homed_at(3);
    for (const Gva g : {a, b, a, c}) (void)co_await resolve(ctx, g);
  });
  world.run();
  const auto& cache = dynamic_cast<const gas::AgasSw&>(world.gas()).cache(0);
  EXPECT_NE(cache.peek(a.block_key()), nullptr);
  EXPECT_EQ(cache.peek(b.block_key()), nullptr);
  EXPECT_NE(cache.peek(c.block_key()), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(world.counters().sw_cache_misses, 3u);
  EXPECT_EQ(world.counters().sw_cache_hits, 1u);
}

TEST(AgasSwWhitebox, FreeDropsOnlyTheFreedAllocationsEntries) {
  World world(Config::with_nodes(4, GasMode::kAgasSw));
  Gva gone;
  Gva kept;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    gone = alloc_cyclic(ctx, 4, 256);
    kept = alloc_cyclic(ctx, 4, 256);
    // Rank 0 caches every remote block of both, and one kept block moves.
    for (int b = 0; b < 4; ++b) {
      (void)co_await resolve(ctx, gone.advanced(b * 256, 256));
      (void)co_await resolve(ctx, kept.advanced(b * 256, 256));
    }
    co_await migrate(ctx, kept.advanced(256, 256), 3);
    (void)co_await resolve(ctx, kept.advanced(256, 256));
    free_alloc(ctx, gone);
  });
  world.run();
  const auto& sw = dynamic_cast<const gas::AgasSw&>(world.gas());
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(sw.directory().find(gone.advanced(b * 256, 256)), nullptr)
        << "block " << b;
    const Gva block = kept.advanced(b * 256, 256);
    const gas::DirEntry* e = sw.directory().find(block);
    ASSERT_NE(e, nullptr) << "block " << b;
    if (b == 1) {
      EXPECT_EQ(e->owner, 3);
      EXPECT_EQ(e->generation, 1u);
    } else {
      EXPECT_EQ(e->owner, block.home(4));
      EXPECT_EQ(e->lva, world.heap().initial_lva(block));
      EXPECT_EQ(e->generation, 0u);
    }
  }
  EXPECT_EQ(world.gas().audit_translation(), "");
  EXPECT_EQ(world.gas().audit_quiescent(), "");
}

// Issue a put, a fetch_add, a get and a resolve on `block` from the
// fiber's rank without waiting in between; each arrives at `gate` when
// it completes. Under agas-sw the last three miss while the put's
// resolve is in flight.
void four_ops_at_once(Context& ctx, World& world, Gva block, rt::AndGate& gate) {
  rt::AndGate* g = &gate;
  sim::TaskCtx& task = detail::task_of(ctx);
  gas::GasBase& gas = world.gas();
  gas.memput(task, ctx.rank(), block.advanced(8, 256),
             std::vector<std::byte>(8, std::byte{1}),
             [g](sim::Time t) { g->arrive(t); });
  gas.fetch_add(task, ctx.rank(), block, 1,
                [g](sim::Time t, std::uint64_t) { g->arrive(t); });
  gas.memget(task, ctx.rank(), block, 16,
             [g](sim::Time t, std::vector<std::byte>) { g->arrive(t); });
  gas.resolve(task, ctx.rank(), block, [g](sim::Time t, int) { g->arrive(t); });
}

// Every op leaves its manager's op slab, where gets and fetch_adds wait
// too while their verbs fly, on the clean wire and on a lossy one.
TEST(AgasSwWhitebox, SlabAndLedgersHoldNothingAfterRun) {
  for (const GasMode mode : {GasMode::kPgas, GasMode::kAgasSw, GasMode::kAgasNet}) {
    for (const bool lossy : {false, true}) {
      Config cfg = Config::with_nodes(8, mode);
      cfg.gas_costs.sw_cache_capacity = 2;
      if (lossy) {
        sim::FaultRule drop;
        drop.drop = 0.05;
        cfg.faults.rules.push_back(drop);
      }
      World world(cfg);
      world.run_spmd([&world](Context& ctx) -> Fiber {
        const Gva table = alloc_cyclic(ctx, 8, 256);
        for (int b = 0; b < 8; ++b) {
          rt::AndGate gate(4);
          four_ops_at_once(ctx, world,
                           table.advanced(((ctx.rank() + b) % 8) * 256, 256), gate);
          co_await gate;
        }
        co_await world.coll().barrier(ctx);
        if (world.gas().supports_migration() && ctx.rank() == 0) {
          co_await migrate(ctx, table, 5);
        }
        rt::AndGate gate(4);
        four_ops_at_once(ctx, world, table, gate);
        co_await gate;
        co_await world.coll().barrier(ctx);
      });
      const std::string where = std::string(to_string(mode)) +
                                (lossy ? " lossy" : " clean");
      EXPECT_EQ(world.gas().audit_quiescent(), "") << where;
      if (lossy) {
        EXPECT_GT(world.counters().net_retransmits, 0u) << where;
      }
    }
  }
}

// Run `world` event by event until it is idle and return the first
// quiescent audit that is not clean, or "" if none was.
std::string first_unclean_audit(World& world) {
  std::string seen;
  while (!world.engine().idle()) {
    (void)world.run(1);
    const std::string err = world.gas().audit_quiescent();
    if (seen.empty()) seen = err;
  }
  return seen;
}

// Rank 0 fetch_adds a block homed at rank 2. While the fetch_add resolves
// (agas-sw) and flies, the audit names it; once it completes the audit is
// clean.
void audit_names_a_remote_fetch_add(GasMode mode) {
  World world(Config::with_nodes(4, mode));
  Gva block;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, 4, 256);
    while (block.home(4) != 2) block = block.advanced(256, 256);
    (void)co_await fetch_add(ctx, block, 1);
  });
  const std::string expected = util::format(
      "1 op(s) never completed; the first is a fetch_add on block %llx "
      "from node 0",
      static_cast<unsigned long long>(block.block_key()));
  EXPECT_EQ(first_unclean_audit(world), expected);
  EXPECT_EQ(world.gas().audit_quiescent(), "");
}

TEST(AgasSwWhitebox, QuiescentAuditNamesAParkedOp) {
  audit_names_a_remote_fetch_add(GasMode::kAgasSw);
}

// pgas parks its ops in the same op slab, so its audit sees them too.
TEST(PgasWhitebox, QuiescentAuditNamesAParkedOp) {
  audit_names_a_remote_fetch_add(GasMode::kPgas);
}

// Rank 0 issues three fetch_adds, two resolves and a get on one block at
// once: all miss, one resolve request goes out, and the rest wait on it.
// With `moving`, rank 0 first asks the home to move the block, so the
// home parks the request until the move commits. Either way the waiting
// ops run in issue order: the resolves answer in that order, and the
// fetch_adds, which reach the owner in the order they were sent, read 0,
// 1 and 2.
TEST(AgasSwWhitebox, OpsWaitingOnOneResolveRunInIssueOrder) {
  for (const bool moving : {false, true}) {
    World world(Config::with_nodes(8, GasMode::kAgasSw));
    Gva block;
    std::vector<std::string> log;
    bool moved = false;
    world.spawn(0, [&](Context& ctx) -> Fiber {
      block = alloc_cyclic(ctx, 8, 256);
      while (block.home(8) != 2) block = block.advanced(256, 256);
      sim::TaskCtx& task = detail::task_of(ctx);
      gas::GasBase& gas = world.gas();
      if (moving) gas.migrate(task, 0, block, 5, [&](sim::Time) { moved = true; });
      rt::AndGate gate(6);
      rt::AndGate* g = &gate;
      const auto fadd = [&](int i) {
        gas.fetch_add(task, 0, block, 1, [&log, g, i](sim::Time t, std::uint64_t old) {
          log.push_back(util::format("fadd%d=%llu", i, static_cast<unsigned long long>(old)));
          g->arrive(t);
        });
      };
      const auto owner = [&](int i) {
        gas.resolve(task, 0, block, [&log, g, i](sim::Time t, int o) {
          log.push_back(util::format("resolve%d=%d", i, o));
          g->arrive(t);
        });
      };
      fadd(0);
      owner(0);
      fadd(1);
      gas.memget(task, 0, block, 8, [&log, g](sim::Time t, std::vector<std::byte>) {
        log.push_back("get");
        g->arrive(t);
      });
      owner(1);
      fadd(2);
      co_await gate;
    });
    world.run();
    const int owner = moving ? 5 : 2;
    EXPECT_EQ(moved, moving);
    EXPECT_EQ(world.counters().sw_cache_misses, 6u) << "moving=" << moving;
    std::vector<std::string> resolves;
    std::vector<std::string> fadds;
    for (const std::string& e : log) {
      if (e.rfind("resolve", 0) == 0) resolves.push_back(e);
      if (e.rfind("fadd", 0) == 0) fadds.push_back(e);
    }
    EXPECT_EQ(resolves, (std::vector<std::string>{
                            util::format("resolve0=%d", owner),
                            util::format("resolve1=%d", owner)}))
        << "moving=" << moving;
    EXPECT_EQ(fadds, (std::vector<std::string>{"fadd0=0", "fadd1=1", "fadd2=2"}))
        << "moving=" << moving;
    EXPECT_EQ(log.size(), 6u);
    EXPECT_EQ(world.gas().audit_quiescent(), "");
  }
}

// The home moves a block and, while it moves, parks its own resolve A,
// then rank 0's resolve request R, then its own resolve B. At commit it
// replays them in that order on its one worker, so B ends after both A's
// and R's directory lookups and R's reply post, and every resolve names
// the new owner.
TEST(AgasSwWhitebox, HomeReplaysItsOpsAndResolveRequestsInArrivalOrder) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasSw);
  cfg.machine.workers_per_node = 1;
  World world(cfg);
  gas::GasBase& gas = world.gas();
  std::vector<std::pair<std::string, int>> owners;
  sim::Time a_done = 0;
  sim::Time b_done = 0;
  bool moved = false;
  world.spawn(2, [&](Context& ctx) -> Fiber {
    Gva block = alloc_cyclic(ctx, 8, 256);
    while (block.home(8) != 2) block = block.advanced(256, 256);
    sim::TaskCtx& task = detail::task_of(ctx);
    gas.migrate(task, 2, block, 5, [&moved](sim::Time) { moved = true; });
    gas.resolve(task, 2, block, [&](sim::Time t, int o) {
      owners.emplace_back("A", o);
      a_done = t;
    });
    ctx.spawn(0, [&gas, &owners, block](Context& c0) -> Fiber {
      gas.resolve(detail::task_of(c0), 0, block,
                  [&owners](sim::Time, int o) { owners.emplace_back("R", o); });
      co_return;
    });
    const std::uint64_t lookups = world.counters().directory_lookups;
    co_await ctx.sleep(2'500);
    // R reached the home and parked; the move has not committed.
    EXPECT_EQ(world.counters().directory_lookups, lookups + 1);
    EXPECT_FALSE(moved);
    gas.resolve(detail::task_of(ctx), 2, block, [&](sim::Time t, int o) {
      owners.emplace_back("B", o);
      b_done = t;
    });
  });
  world.run();
  EXPECT_TRUE(moved);
  EXPECT_EQ(owners, (std::vector<std::pair<std::string, int>>{
                        {"A", 5}, {"B", 5}, {"R", 5}}));
  EXPECT_EQ(b_done - a_done, 2 * gas::kDirLookupNs + net::Endpoint::post_cost());
  EXPECT_EQ(world.gas().audit_quiescent(), "");
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
  const auto& net = dynamic_cast<const gas::AgasNet&>(world.gas());
  const auto key = block.block_key();

  // Home (2): pinned, authoritative, generation 2.
  const net::TlbEntry* home_e = net.tlb(2).peek(key);
  ASSERT_NE(home_e, nullptr);
  EXPECT_TRUE(home_e->pinned);
  EXPECT_EQ(home_e->owner, 4);
  EXPECT_EQ(home_e->generation, 2u);
  EXPECT_FALSE(home_e->in_flight);

  // Current owner (4): pinned owned entry.
  const net::TlbEntry* owner_e = net.tlb(4).peek(key);
  ASSERT_NE(owner_e, nullptr);
  EXPECT_TRUE(owner_e->pinned);
  EXPECT_EQ(owner_e->owner, 4);

  // Previous owner (6): unpinned forwarding hint to 4.
  const net::TlbEntry* hint_e = net.tlb(6).peek(key);
  ASSERT_NE(hint_e, nullptr);
  EXPECT_FALSE(hint_e->pinned);
  EXPECT_EQ(hint_e->owner, 4);

  // Stale source (0): unpinned cached entry pointing at the FIRST
  // location it learned (the home, who owned at warmup).
  const net::TlbEntry* src_e = net.tlb(0).peek(key);
  ASSERT_NE(src_e, nullptr);
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
  const auto& net = dynamic_cast<const gas::AgasNet&>(world.gas());
  const net::TlbEntry* e = net.tlb(0).peek(block.block_key());
  ASSERT_NE(e, nullptr);
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
    const auto& agas = dynamic_cast<const gas::AgasNet&>(world.gas());
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
  const auto& net = dynamic_cast<const gas::AgasNet&>(world.gas());
  for (int n = 0; n < 4; ++n) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(net.tlb(n).peek(base.advanced(b * 256, 256).block_key()),
                nullptr);
    }
  }
}

// The in-flight op slab: every op leaves it when it completes, and an op
// that never completes shows up in the quiescent audit.
TEST(AgasNetWhitebox, SlabHoldsNoOpsAfterRun) {
  for (const bool lossy : {false, true}) {
    Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
    if (lossy) {
      sim::FaultRule drop;
      drop.drop = 0.05;
      cfg.faults.rules.push_back(drop);
    }
    World world(cfg);
    world.run_spmd([&world](Context& ctx) -> Fiber {
      const Gva table = alloc_cyclic(ctx, 8, 256);
      for (int b = 0; b < 8; ++b) {
        const Gva block = table.advanced(((ctx.rank() + b) % 8) * 256, 256);
        co_await memput_value<std::uint64_t>(ctx, block, 1);
        (void)co_await fetch_add(ctx, block, 2);
        (void)co_await memget_value<std::uint64_t>(ctx, block);
      }
      if (ctx.rank() == 0) co_await migrate(ctx, table, 5);
      (void)co_await memget_value<std::uint64_t>(ctx, table);
      co_await world.coll().barrier(ctx);
    });
    EXPECT_EQ(world.gas().audit_quiescent(), "") << "lossy=" << lossy;
  }
}

// Step event by event: while a fetch_add is on the wire, or a resolve
// that missed rank 0's TLB waits for the home NIC's answer, the audit
// names it; once it completes the audit is clean.
TEST(AgasNetWhitebox, QuiescentAuditNamesAnUnfinishedOp) {
  for (const bool resolving : {false, true}) {
    World world(Config::with_nodes(4, GasMode::kAgasNet));
    Gva block;
    world.spawn(0, [&](Context& ctx) -> Fiber {
      block = alloc_cyclic(ctx, 4, 256);
      while (block.home(4) != 2) block = block.advanced(256, 256);
      if (resolving) {
        (void)co_await resolve(ctx, block);
      } else {
        (void)co_await fetch_add(ctx, block, 1);
      }
    });
    const std::string seen = first_unclean_audit(world);
    EXPECT_NE(seen.find("1 op(s) never completed"), std::string::npos) << seen;
    if (resolving) {
      EXPECT_EQ(seen, util::format("1 op(s) never completed; the first is a "
                                   "resolve on block %llx from node 0",
                                   static_cast<unsigned long long>(
                                       block.block_key())));
    } else {
      EXPECT_NE(seen.find("from node 0 after 1 hop(s)"), std::string::npos)
          << seen;
    }
    EXPECT_EQ(world.gas().audit_quiescent(), "");
  }
}

// Ops issued from inside completions. Each fetch_add and memget
// completion issues two more until a budget runs out, and a memput's
// remote-notify callback issues three fetch_adds while the put is still
// parked; as the run's first op it leaves the slab no free id, so the
// slab grows under that callback. Every callback captures 16 bytes or
// less, which std::function stores inside the op itself, and reads its
// captures again after issuing: a callback run in place while the slab
// grows would read them from freed memory, which the sanitizer builds
// report.
struct SlabChain {
  gas::GasBase* gas = nullptr;
  sim::Fabric* fabric = nullptr;
  Gva counter;
  Gva cell;
  int owner = -1;  // the cell's owner, where its remote notify fires
  int budget = 200;
  int issued = 0;
  int fadds_done = 0;
  int gets_done = 0;
  int notifies = 0;
  int notified_fadds = 0;
  int bad_gets = 0;
  std::uint64_t max_old = 0;
  bool put_done = false;

  void put_with_notify(int node, sim::Time t) {
    sim::TaskCtx task(fabric->cpu(node), t);
    gas->memput_notify(
        task, node, cell, std::vector<std::byte>(8, std::byte{7}),
        [c = this](sim::Time) { c->put_done = true; },
        [c = this](sim::Time done) {
          c->notify(done);
          ++c->notifies;
        });
  }

  void notify(sim::Time t) {
    sim::TaskCtx task(fabric->cpu(owner), t);
    for (int i = 0; i < 3; ++i) {
      gas->fetch_add(task, owner, counter, 1,
                     [c = this](sim::Time, std::uint64_t) {
                       ++c->notified_fadds;
                     });
    }
  }

  void issue_two(int node, sim::Time t) {
    sim::TaskCtx task(fabric->cpu(node), t);
    if (issued++ < budget) {
      gas->fetch_add(task, node, counter, 1,
                     [c = this, node](sim::Time done, std::uint64_t old) {
                       c->issue_two((node + 1) % 4, done);
                       ++c->fadds_done;
                       c->max_old = std::max(c->max_old, old);
                     });
    }
    if (issued++ < budget) {
      gas->memget(task, node, cell, 8,
                  [c = this, node](sim::Time done, std::vector<std::byte> data) {
                    c->issue_two((node + 3) % 4, done);
                    ++c->gets_done;
                    if (data != std::vector<std::byte>(8, std::byte{7})) {
                      ++c->bad_gets;
                    }
                  });
    }
  }
};

TEST(AgasNetWhitebox, OpsIssuedFromCompletionsGrowTheSlab) {
  World world(Config::with_nodes(4, GasMode::kAgasNet));
  SlabChain chain;
  chain.gas = &world.gas();
  chain.fabric = &world.fabric();
  world.spawn(0, [&chain](Context& ctx) -> Fiber {
    chain.counter = alloc_cyclic(ctx, 4, 64);
    while (chain.counter.home(4) != 1) {
      chain.counter = chain.counter.advanced(64, 64);
    }
    chain.cell = chain.counter.advanced(64, 64);
    co_return;
  });
  world.run();
  chain.owner = world.gas().owner_of(chain.cell).first;
  ASSERT_NE(chain.owner, 3);

  chain.put_with_notify(3, world.engine().now());
  world.run();
  EXPECT_TRUE(chain.put_done);
  EXPECT_EQ(chain.notifies, 1);
  EXPECT_EQ(chain.notified_fadds, 3);

  chain.issue_two(0, world.engine().now());
  world.run();
  EXPECT_EQ(chain.fadds_done + chain.gets_done, chain.budget);
  EXPECT_EQ(chain.bad_gets, 0);
  // The notify's three adds came first; the chain's adds return every
  // value after them exactly once.
  EXPECT_EQ(chain.max_old, 3u + static_cast<std::uint64_t>(chain.fadds_done) - 1);
  EXPECT_EQ(world.gas().audit_quiescent(), "");
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
