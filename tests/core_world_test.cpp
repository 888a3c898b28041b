// World assembly, SPMD running, apply(), agas-net's piggyback.
#include <gtest/gtest.h>

#include "core/nvgas.hpp"

namespace nvgas {
namespace {

TEST(World, ComponentsWiredForEveryMode) {
  for (GasMode mode : {GasMode::kPgas, GasMode::kAgasSw, GasMode::kAgasNet}) {
    World world(Config::with_nodes(4, mode));
    EXPECT_EQ(world.ranks(), 4);
    EXPECT_EQ(world.gas().mode(), mode);
    EXPECT_EQ(world.gas().supports_migration(), mode != GasMode::kPgas);
    EXPECT_NE(world.runtime().ctx(0).gas, nullptr);
  }
}

TEST(World, RunSpmdRunsOnEveryRank) {
  World world(Config::with_nodes(6));
  std::vector<int> ran;
  world.run_spmd([&](Context& ctx) -> Fiber {
    ran.push_back(ctx.rank());
    co_return;
  });
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(World, RunSpmdDetectsDeadlock) {
  World world(Config::with_nodes(2));
  rt::Event never;
  EXPECT_DEATH(world.run_spmd([&](Context&) -> Fiber {
    co_await never;  // nobody sets this
  }),
               "deadlock");
}

TEST(World, SpmdCollectivesAndGasTogether) {
  World world(Config::with_nodes(8));
  std::vector<double> results(8, 0);
  world.run_spmd([&](Context& ctx) -> Fiber {
    // Every rank allocates a local slot, writes its rank, reads a
    // neighbour's slot via a shared cyclic table.
    static Gva table;  // set by rank 0, visible after the barrier
    if (ctx.rank() == 0) {
      table = alloc_cyclic(ctx, static_cast<std::uint32_t>(ctx.ranks()), 64);
    }
    co_await world.coll().barrier(ctx);
    co_await memput_value<std::uint64_t>(
        ctx, table.advanced(ctx.rank() * 64, 64),
        static_cast<std::uint64_t>(ctx.rank() * 11));
    co_await world.coll().barrier(ctx);
    const int peer = (ctx.rank() + 1) % ctx.ranks();
    const auto v = co_await memget_value<std::uint64_t>(
        ctx, table.advanced(peer * 64, 64));
    EXPECT_EQ(v, static_cast<std::uint64_t>(peer * 11));
    results[static_cast<std::size_t>(ctx.rank())] =
        co_await world.coll().allreduce_sum(ctx, 1.0);
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 8.0);
}

TEST(World, MaxEventsWatchdogStopsRun) {
  World world(Config::with_nodes(2));
  // A self-perpetuating parcel storm.
  rt::ActionId storm{};
  storm = world.runtime().actions().add(
      "test.storm", [&](Context& c, int, util::Buffer) {
        c.send((c.rank() + 1) % c.ranks(), storm, {});
      });
  world.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.send(1, storm, {});
    co_return;
  });
  const auto executed = world.run(5000);
  EXPECT_EQ(executed, 5000u);
  EXPECT_FALSE(world.engine().idle());
}

TEST(World, PiggybackMakesSecondAccessDirect) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  World world(cfg);
  Gva base;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, 8, 256);
    // Pick a block NOT homed at rank 0 so the first access misses.
    Gva addr = base;
    while (addr.home(ctx.ranks()) == 0) addr = addr.advanced(256, 256);
    co_await memput_value<std::uint64_t>(ctx, addr, 1);  // miss + update
    const auto misses_after_first = world.counters().nic_tlb_misses;
    co_await memput_value<std::uint64_t>(ctx, addr, 2);  // must hit now
    EXPECT_EQ(world.counters().nic_tlb_misses, misses_after_first);
    EXPECT_GT(world.counters().nic_tlb_updates, 0u);
  });
  world.run();
}

TEST(World, NonBlockingVariantsComplete) {
  World world(Config::with_nodes(8, GasMode::kAgasNet));
  bool done = false;
  Gva base;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    base = alloc_cyclic(ctx, 8, 256);
    rt::AndGate gate(8 + 8 + 2);
    for (int b = 0; b < 8; ++b) {
      memput_value_nb(ctx, base.advanced(b * 256, 256),
                      static_cast<std::uint64_t>(b), gate);
    }
    std::vector<std::byte> sink(8 * 8);
    for (int b = 0; b < 8; ++b) {
      // In-flight reads may race the puts above; they complete either way.
      memget_nb(ctx, base.advanced(b * 256, 256),
                std::span(sink).subspan(static_cast<std::size_t>(b) * 8, 8), gate);
    }
    migrate_nb(ctx, base, 5, gate);
    resolve_nb(ctx, base.advanced(256, 256), gate);
    co_await gate;
    done = true;
  });
  world.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(world.gas().owner_of(base).first, 5);
}

TEST(World, PrefetchEliminatesFirstAccessMisses) {
  Config cfg = Config::with_nodes(8, GasMode::kAgasNet);
  World world(cfg);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 32, 512);
    rt::AndGate gate(32);
    prefetch_nb(ctx, base, 32, gate);
    co_await gate;
    const auto misses_before = world.counters().nic_tlb_misses;
    for (int b = 0; b < 32; ++b) {
      co_await memput_value<std::uint64_t>(ctx, base.advanced(b * 512, 512), 1);
    }
    EXPECT_EQ(world.counters().nic_tlb_misses, misses_before);
  });
  world.run();
}

// --- every fiber-facing GAS op, one table ----------------------------------
// Each row issues one awaitable (or its _nb twin) from rank 0 against a
// block that is either rank-local or remote, and checks what it returned.
// Rows marked `sync_when_local` complete inside the issuing CPU task when
// the block is local and translation needs no message (pgas, and the
// agas-sw home): the fiber never suspends, so no CPU task finishes while
// the op is outstanding.

constexpr std::uint32_t kOpBlock = 256;

struct OpEnv {
  World& world;
  rt::ActionId poke;  // records the rank it ran on in `applied_on`
  Gva block;          // the block under test
  Gva next;           // the block after it
  int owner = -1;     // block's owner when the row starts
  int applied_on = -1;
  std::uint64_t tasks_before = 0;
  std::uint64_t tasks_during = ~0ULL;

  void begin() { tasks_before = world.counters().cpu_tasks; }
  void end() { tasks_during = world.counters().cpu_tasks - tasks_before; }
};

struct OpRow {
  const char* name;
  bool sync_when_local;
  bool needs_migration;
  std::function<Fiber(Context&, OpEnv&)> body;
};

std::vector<std::byte> fill(std::size_t n, std::uint8_t salt) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>(salt + i);
  return out;
}

std::vector<OpRow> op_rows() {
  const auto data = fill(8, 0x11);
  return {
      {"memput", true, false,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         env.begin();
         co_await memput(ctx, env.block, data);
         env.end();
         EXPECT_EQ(co_await memget(ctx, env.block, 8), data);
       }},
      {"memput(span)", true, false,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         env.begin();
         co_await memput(ctx, env.block, std::span<const std::byte>(data));
         env.end();
         EXPECT_EQ(co_await memget(ctx, env.block, 8), data);
       }},
      {"memput_nb", true, false,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         rt::AndGate gate(1);
         env.begin();
         memput_nb(ctx, env.block, data, gate);
         co_await gate;
         env.end();
         EXPECT_EQ(co_await memget(ctx, env.block, 8), data);
       }},
      {"memput_value", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         env.begin();
         co_await memput_value<std::uint64_t>(ctx, env.block, 77);
         env.end();
         EXPECT_EQ(co_await memget_value<std::uint64_t>(ctx, env.block), 77u);
       }},
      {"memput_value_nb", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         rt::AndGate gate(1);
         env.begin();
         memput_value_nb<std::uint64_t>(ctx, env.block, 78, gate);
         co_await gate;
         env.end();
         EXPECT_EQ(co_await memget_value<std::uint64_t>(ctx, env.block), 78u);
       }},
      {"memput_signal", true, false,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         rt::Event landed;
         const rt::LcoRef ref = ctx.make_ref(landed);
         env.begin();
         co_await memput_signal(ctx, env.block, data, ref);
         env.end();
         EXPECT_TRUE(landed.triggered());
         ctx.release_ref(ref);
         EXPECT_EQ(co_await memget(ctx, env.block, 8), data);
       }},
      {"memput_signal_value", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         rt::Event landed;
         const rt::LcoRef ref = ctx.make_ref(landed);
         env.begin();
         co_await memput_signal_value<std::uint64_t>(ctx, env.block, 79, ref);
         env.end();
         EXPECT_TRUE(landed.triggered());
         ctx.release_ref(ref);
         EXPECT_EQ(co_await memget_value<std::uint64_t>(ctx, env.block), 79u);
       }},
      {"memget", true, false,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         co_await memput(ctx, env.block, data);
         env.begin();
         const auto got = co_await memget(ctx, env.block, 8);
         env.end();
         EXPECT_EQ(got, data);
       }},
      {"memget_value", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         co_await memput_value<std::uint64_t>(ctx, env.block, 80);
         env.begin();
         const auto got = co_await memget_value<std::uint64_t>(ctx, env.block);
         env.end();
         EXPECT_EQ(got, 80u);
       }},
      {"memget_nb", true, false,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         co_await memput(ctx, env.block, data);
         std::vector<std::byte> got(8);
         rt::AndGate gate(1);
         env.begin();
         memget_nb(ctx, env.block, got, gate);
         co_await gate;
         env.end();
         EXPECT_EQ(got, data);
       }},
      {"fetch_add", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         co_await memput_value<std::uint64_t>(ctx, env.block, 40);
         env.begin();
         const auto old = co_await fetch_add(ctx, env.block, 2);
         env.end();
         EXPECT_EQ(old, 40u);
         EXPECT_EQ(co_await memget_value<std::uint64_t>(ctx, env.block), 42u);
       }},
      {"fetch_add_nb", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         co_await memput_value<std::uint64_t>(ctx, env.block, 40);
         rt::AndGate gate(1);
         env.begin();
         fetch_add_nb(ctx, env.block, 3, gate);
         co_await gate;
         env.end();
         EXPECT_EQ(co_await memget_value<std::uint64_t>(ctx, env.block), 43u);
       }},
      {"resolve", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         env.begin();
         const int owner = co_await resolve(ctx, env.block);
         env.end();
         EXPECT_EQ(owner, env.owner);
       }},
      {"resolve_nb", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         rt::AndGate gate(1);
         env.begin();
         resolve_nb(ctx, env.block, gate);
         co_await gate;
         env.end();
         EXPECT_EQ(co_await resolve(ctx, env.block), env.owner);
       }},
      {"prefetch_nb", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         rt::AndGate gate(2);
         env.begin();
         prefetch_nb(ctx, env.block, 2, gate);
         co_await gate;
         env.end();
         EXPECT_TRUE(gate.triggered());
       }},
      {"apply", true, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         env.begin();
         co_await apply(ctx, env.block, env.poke, {});
         env.end();
         while (env.applied_on < 0) co_await ctx.sleep(1000);
         EXPECT_EQ(env.applied_on, env.owner);
       }},
      {"migrate", false, true,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         co_await memput(ctx, env.block, data);
         env.begin();
         co_await migrate(ctx, env.block, 3);
         env.end();
         EXPECT_EQ(env.world.gas().owner_of(env.block).first, 3);
         EXPECT_EQ(co_await memget(ctx, env.block, 8), data);
       }},
      {"migrate_nb", false, true,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         co_await memput(ctx, env.block, data);
         rt::AndGate gate(1);
         env.begin();
         migrate_nb(ctx, env.block, 3, gate);
         co_await gate;
         env.end();
         EXPECT_EQ(env.world.gas().owner_of(env.block).first, 3);
         EXPECT_EQ(co_await memget(ctx, env.block, 8), data);
       }},
      {"memcpy_gva", false, false,
       [data](Context& ctx, OpEnv& env) -> Fiber {
         co_await memput(ctx, env.block, data);
         env.begin();
         co_await memcpy_gva(ctx, env.next, env.block, 8);
         env.end();
         EXPECT_EQ(co_await memget(ctx, env.next, 8), data);
       }},
      {"memput_span+memget_span", false, false,
       [](Context& ctx, OpEnv& env) -> Fiber {
         // Half of `block` and half of `next`: two pieces.
         const Gva start = env.block.advanced(kOpBlock / 2, kOpBlock);
         const auto bulk = fill(kOpBlock, 0x40);
         env.begin();
         co_await memput_span(ctx, start, bulk);
         const auto back = co_await memget_span(ctx, start, bulk.size());
         env.end();
         EXPECT_EQ(back, bulk);
         EXPECT_EQ(co_await memget(ctx, env.next, kOpBlock / 2),
                   std::vector<std::byte>(bulk.begin() + kOpBlock / 2, bulk.end()));
       }},
  };
}

class GasOpTable : public ::testing::TestWithParam<GasMode> {};

TEST_P(GasOpTable, EveryOpOnLocalAndRemoteBlocks) {
  const GasMode mode = GetParam();
  for (const OpRow& row : op_rows()) {
    if (row.needs_migration && mode == GasMode::kPgas) continue;
    for (const bool local : {true, false}) {
      SCOPED_TRACE(std::string(row.name) + (local ? " on a local block"
                                                  : " on a remote block"));
      World world(Config::with_nodes(4, mode));
      OpEnv env{world, {}, {}, {}};
      env.poke = world.runtime().actions().add(
          "test.poke", [&env](Context& c, int, util::Buffer) {
            env.applied_on = c.rank();
          });
      world.spawn(0, [&](Context& ctx) {
        // Local: two blocks on rank 0. Remote: the first block homed on
        // rank 2 of a cyclic allocation, and its successor (rank 3).
        if (local) {
          env.block = alloc_local(ctx, 2, kOpBlock);
          env.owner = 0;
        } else {
          env.block = alloc_cyclic(ctx, 8, kOpBlock);
          while (env.block.home(ctx.ranks()) != 2) {
            env.block = env.block.advanced(kOpBlock, kOpBlock);
          }
          env.owner = 2;
        }
        env.next = env.block.advanced(kOpBlock, kOpBlock);
        return row.body(ctx, env);
      });
      world.run();
      EXPECT_EQ(world.runtime().live_fibers(), 0u) << "the row never finished";
      EXPECT_NE(env.tasks_during, ~0ULL) << "row never measured its op";
      if (local && row.sync_when_local && mode != GasMode::kAgasNet) {
        EXPECT_EQ(env.tasks_during, 0u) << "the fiber suspended";
      }
    }
  }
}

std::string op_table_mode(const ::testing::TestParamInfo<GasMode>& info) {
  switch (info.param) {
    case GasMode::kPgas: return "pgas";
    case GasMode::kAgasSw: return "agassw";
    case GasMode::kAgasNet: return "agasnet";
  }
  return "x";
}

INSTANTIATE_TEST_SUITE_P(AllModes, GasOpTable,
                         ::testing::Values(GasMode::kPgas, GasMode::kAgasSw,
                                           GasMode::kAgasNet),
                         op_table_mode);

TEST(World, CountersItemsExposeAllFields) {
  World world(Config::with_nodes(2));
  const auto items = world.counters().items();
  EXPECT_GT(items.size(), 20u);
  for (const auto& [name, value] : items) {
    EXPECT_FALSE(name.empty());
    (void)value;
  }
}

}  // namespace
}  // namespace nvgas
