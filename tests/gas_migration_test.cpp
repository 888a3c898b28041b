// Migration semantics for the two mobile address-space managers.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"
#include "gas/invariants.hpp"

namespace nvgas {
namespace {

class MigrationTest : public ::testing::TestWithParam<GasMode> {
 protected:
  Config make_config(int nodes = 8) const {
    Config cfg = Config::with_nodes(nodes, GetParam());
    cfg.machine.mem_bytes_per_node = 8u << 20;
    return cfg;
  }
};

std::string mode_name(const ::testing::TestParamInfo<GasMode>& info) {
  return info.param == GasMode::kAgasSw ? "sw" : "net";
}

TEST_P(MigrationTest, DataSurvivesMigration) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 4, 4096);
    std::vector<std::byte> payload(4096);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::byte>(i % 251);
    }
    co_await memput(ctx, base, payload);
    co_await migrate(ctx, base, 5);
    EXPECT_EQ(world.gas().owner_of(base).first, 5);
    const auto back = co_await memget(ctx, base, 4096);
    EXPECT_EQ(back, payload);
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
}

TEST_P(MigrationTest, AddressUnchangedAfterMigration) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 256);
    co_await memput_value<std::uint64_t>(ctx, base, 42);
    const int before = co_await resolve(ctx, base);
    co_await migrate(ctx, base, (before + 3) % ctx.ranks());
    // Same GVA still reads the same data.
    const auto v = co_await memget_value<std::uint64_t>(ctx, base);
    EXPECT_EQ(v, 42u);
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
}

TEST_P(MigrationTest, WritesAfterMigrationLandAtNewOwner) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 256);
    co_await migrate(ctx, base, 6);
    co_await memput_value<std::uint64_t>(ctx, base, 99);
    const auto [owner, lva] = world.gas().owner_of(base);
    EXPECT_EQ(owner, 6);
    EXPECT_EQ(world.fabric().mem(6).load<std::uint64_t>(lva), 99u);
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
}

TEST_P(MigrationTest, MigrateToCurrentOwnerIsANoop) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 256);
    const int home = base.home(ctx.ranks());
    co_await memput_value<std::uint64_t>(ctx, base, 17);
    co_await migrate(ctx, base, home);
    EXPECT_EQ(world.gas().owner_of(base).first, home);
    const auto v = co_await memget_value<std::uint64_t>(ctx, base);
    EXPECT_EQ(v, 17u);
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_EQ(world.counters().migrations, 0u);
}

TEST_P(MigrationTest, ChainedMigrationsVisitEveryRank) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 1024);
    co_await memput_value<std::uint64_t>(ctx, base, 0xbeef);
    for (int hop = 0; hop < ctx.ranks(); ++hop) {
      const int dst = (base.home(ctx.ranks()) + hop + 1) % ctx.ranks();
      co_await migrate(ctx, base, dst);
      EXPECT_EQ(world.gas().owner_of(base).first, dst);
      const auto v = co_await memget_value<std::uint64_t>(ctx, base);
      EXPECT_EQ(v, 0xbeefu);
    }
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_EQ(world.counters().migrations, 8u);
}

TEST_P(MigrationTest, StaleReadersStillReadCorrectData) {
  // Reader warms its translation, the block moves, the reader reads again
  // without being told: forwarding (NET) or invalidation+re-resolve (SW)
  // must deliver the fresh location transparently.
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 256);
    co_await memput_value<std::uint64_t>(ctx, base, 1);

    rt::Event reader_warm;
    rt::Event moved;
    rt::Future<std::uint64_t> second_read;
    const rt::LcoRef warm_ref = ctx.make_ref(reader_warm);
    const rt::LcoRef read_ref = ctx.make_ref(second_read);

    ctx.spawn(3, [&, warm_ref, read_ref](Context& c) -> Fiber {
      (void)co_await memget_value<std::uint64_t>(c, base);  // warm cache
      c.set_lco(warm_ref);
      co_await moved;  // (same-process LCO: test-side synchronization)
      const auto v = co_await memget_value<std::uint64_t>(c, base);
      util::Buffer buf;
      buf.put<std::uint64_t>(v);
      c.set_lco(read_ref, std::move(buf));
    });

    co_await reader_warm;
    co_await memput_value<std::uint64_t>(ctx, base, 2);
    co_await migrate(ctx, base, 7);
    co_await memput_value<std::uint64_t>(ctx, base, 3);
    moved.set(ctx.now());
    const auto v = co_await second_read;
    EXPECT_EQ(v, 3u);
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
}

TEST_P(MigrationTest, ConcurrentWritersDuringMigrationLoseNoAckedWrite) {
  // Writers hammer distinct words of a block while it migrates; every
  // write that was acknowledged must be present afterwards.
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  const int P = world.ranks();
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const std::uint32_t bsize = 4096;
    const Gva base = alloc_cyclic(ctx, 1, bsize);
    rt::AndGate writers(static_cast<std::uint64_t>(P));
    const rt::LcoRef wref = ctx.make_ref(writers);
    for (int r = 0; r < P; ++r) {
      ctx.spawn(r, [&, r, wref](Context& c) -> Fiber {
        for (int i = 0; i < 8; ++i) {
          const Gva slot = base.advanced((r * 8 + i) * 8, bsize);
          co_await memput_value<std::uint64_t>(
              c, slot, static_cast<std::uint64_t>(r * 100 + i));
        }
        c.set_lco(wref);
      });
    }
    // Start migrations while the writers run.
    co_await migrate(ctx, base, 3);
    co_await migrate(ctx, base, 6);
    co_await writers;
    for (int r = 0; r < P; ++r) {
      for (int i = 0; i < 8; ++i) {
        const Gva slot = base.advanced((r * 8 + i) * 8, bsize);
        const auto v = co_await memget_value<std::uint64_t>(ctx, slot);
        EXPECT_EQ(v, static_cast<std::uint64_t>(r * 100 + i))
            << "writer " << r << " slot " << i;
      }
    }
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_EQ(world.counters().migrations, 2u);
}

// Fires three migrations of one block back-to-back without awaiting in
// between, so the second and third queue at the home behind the first.
// Each is acknowledged and the block ends at the last destination;
// `moves` of them actually move it.
void run_queued_migrations(const Config& cfg, const std::vector<int>& dsts,
                           std::uint64_t moves) {
  World world(cfg);
  gas::InvariantObserver obs(world.gas());
  Gva base;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, 1, 512);
    rt::AndGate gate(dsts.size());
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int dst : dsts) {
      ctx.spawn(0, [&, dst, gref](Context& c) -> Fiber {
        co_await migrate(c, base, dst);
        c.set_lco(gref);
      });
    }
    co_await gate;
    EXPECT_EQ(world.gas().owner_of(base).first, dsts.back());
    const auto v = co_await memget_value<std::uint64_t>(ctx, base);
    (void)v;  // readable without deadlock
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_EQ(world.gas().owner_of(base).first, dsts.back());
  EXPECT_EQ(world.counters().migrations, moves);
}

TEST_P(MigrationTest, QueuedMigrationsChainInOrder) {
  run_queued_migrations(make_config(), {2, 4, 6}, 3);
}

// The second request finds the block already at 2: it is acknowledged
// at once and must still start the third, queued behind it.
TEST_P(MigrationTest, QueuedNoOpMigrationStartsTheNext) {
  run_queued_migrations(make_config(), {2, 2, 4}, 2);
}

// Step a one-block migration event by event: while the move is in flight
// the home's quiescent audit names it, and once it commits the audit is
// clean.
TEST_P(MigrationTest, QuiescentAuditNamesAMoveInFlight) {
  World world(make_config(4));
  world.spawn(0, [](Context& ctx) -> Fiber {
    Gva block = alloc_cyclic(ctx, 4, 256);
    while (block.home(4) != 2) block = block.advanced(256, 256);
    co_await migrate(ctx, block, 3);
  });
  int mid_move_events = 0;
  while (!world.engine().idle()) {
    (void)world.run(1);
    const std::string err = world.gas().audit_quiescent();
    if (err.empty()) continue;
    EXPECT_EQ(err, "1 move(s) never committed");
    ++mid_move_events;
  }
  EXPECT_GT(mid_move_events, 0);
  EXPECT_EQ(world.gas().audit_quiescent(), "");
  EXPECT_EQ(world.counters().migrations, 1u);
}

// Freeing an allocation while one of its blocks moves trips the home's
// safety check. The free is spawned at the first event that leaves the
// move in flight.
TEST_P(MigrationTest, FreeWhileAMoveIsInFlightAborts) {
  EXPECT_DEATH(
      {
        World world(make_config(4));
        Gva base;
        world.spawn(0, [&base](Context& ctx) -> Fiber {
          base = alloc_cyclic(ctx, 4, 256);
          co_await migrate(ctx, base, 3);
        });
        while (world.gas().audit_quiescent().empty() && !world.engine().idle()) {
          (void)world.run(1);
        }
        world.spawn(1, [&base](Context& ctx) -> Fiber {
          free_alloc(ctx, base);
          co_return;
        });
        world.run();
      },
      "free_alloc while a block is migrating");
}

TEST_P(MigrationTest, MigrationReleasesOldStorage) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 4096);
    const int home = base.home(ctx.ranks());
    const auto used_before = world.heap().store(home).bytes_in_use();
    co_await migrate(ctx, base, (home + 1) % ctx.ranks());
    const auto used_after = world.heap().store(home).bytes_in_use();
    EXPECT_EQ(used_after + 4096, used_before);
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
}

TEST_P(MigrationTest, MigrationCountersTrackBytes) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 2, 8192);
    co_await migrate(ctx, base, 5);
    co_await migrate(ctx, base.advanced(8192, 8192), 5);
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_EQ(world.counters().migrations, 2u);
  EXPECT_EQ(world.counters().migration_bytes, 2u * 8192u);
}

TEST_P(MigrationTest, ParcelsFollowMigratedObjects) {
  // apply() routes an action to the object's current owner.
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  int ran_on = -1;
  const auto act = world.runtime().actions().add(
      "test.poke", [&](Context& c, int, util::Buffer) { ran_on = c.rank(); });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 1, 256);
    co_await migrate(ctx, base, 4);
    co_await apply(ctx, base, act, {});
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_EQ(ran_on, 4);
}

TEST_P(MigrationTest, ApplyFromStaleSenderConvergesOnMovedObject) {
  // Regression: a sender whose translation is stale (it warmed before the
  // object moved, and data-path piggyback never repaired it) must still
  // have its parcels forwarded to the object's current owner by the apply
  // trampoline.
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  std::vector<int> ran_on;
  const auto act = world.runtime().actions().add(
      "test.stale_poke", [&](Context& c, int, util::Buffer) {
        ran_on.push_back(c.rank());
      });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva obj = alloc_cyclic(ctx, 1, 256);
    rt::Event warmed;
    rt::Event moved;
    rt::Event sent;
    const rt::LcoRef wref = ctx.make_ref(warmed);
    const rt::LcoRef sref = ctx.make_ref(sent);
    ctx.spawn(2, [&, obj, wref, sref](Context& c) -> Fiber {
      (void)co_await memget_value<std::uint64_t>(c, obj);  // warm translation
      c.set_lco(wref);
      co_await moved;
      co_await apply(c, obj, act, {});  // stale translation
      c.set_lco(sref);
    });
    co_await warmed;
    co_await migrate(ctx, obj, 6);
    moved.set(ctx.now());
    co_await sent;
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], 6);
}

TEST_P(MigrationTest, ApplyDuringMigrationStormStillLandsOnce) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  int executions = 0;
  const auto act = world.runtime().actions().add(
      "test.storm_poke", [&](Context& c, int, util::Buffer) {
        (void)c;
        ++executions;
      });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva obj = alloc_cyclic(ctx, 1, 512);
    // Interleave applies with chained migrations.
    rt::AndGate applies(6);
    const rt::LcoRef aref = ctx.make_ref(applies);
    for (int i = 0; i < 6; ++i) {
      ctx.spawn(i % ctx.ranks(), [obj, act, aref](Context& c) -> Fiber {
        co_await apply(c, obj, act, {});
        c.set_lco(aref);
      });
    }
    for (int dst : {1, 4, 7}) {
      co_await migrate(ctx, obj, dst);
    }
    co_await applies;
  });
  world.run();
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
  EXPECT_EQ(executions, 6);
}

INSTANTIATE_TEST_SUITE_P(Mobile, MigrationTest,
                         ::testing::Values(GasMode::kAgasSw, GasMode::kAgasNet),
                         mode_name);

}  // namespace
}  // namespace nvgas
