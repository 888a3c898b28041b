// Fault-matrix suite: every GAS op class, under every fault class, in
// every address-space mode, must produce exactly the payloads a reliable
// fabric would — the fault injector (sim/faults) plus the end-to-end
// retransmission layer (net/reliability) together restore exactly-once
// semantics. Each cell also reconciles the fault ledger at quiescence
// (delivered == sent - drops + dups) and proves termination: World::run
// under a watchdog cap must drain the queue (no retransmit livelock).
//
// The final tests pin the inertness contract: with no active plan the
// whole subsystem is structurally absent and the engine trace hash is
// byte-identical across equivalent configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "core/nvgas.hpp"
#include "gas/invariants.hpp"

namespace nvgas {
namespace {

// Watchdog: every workload here is tiny; hitting this cap means the
// retransmission protocol livelocked.
constexpr std::uint64_t kMaxEvents = 5'000'000;

enum class FaultKind { kDrop1, kDrop10, kDup5, kDelayReorder, kBrownout };

struct FaultParam {
  FaultParam(FaultKind k, GasMode m) : kind(k), mode(m) {}
  FaultKind kind;
  GasMode mode;
  // gtest prints a parameter that has no operator<< as a byte dump, and
  // gtest_discover_tests copies that dump into the ctest name. Explicit
  // zeroed padding keeps the name identical from build to build.
  std::uint8_t pad[3] = {};
};
static_assert(std::has_unique_object_representations_v<FaultParam>);

sim::FaultPlan make_plan(FaultKind kind) {
  sim::FaultPlan plan;
  plan.seed = 0xfa17fa17;
  switch (kind) {
    case FaultKind::kDrop1:
      plan.rules.push_back({.drop = 0.01});
      break;
    case FaultKind::kDrop10:
      plan.rules.push_back({.drop = 0.10});
      break;
    case FaultKind::kDup5:
      plan.rules.push_back({.dup = 0.05});
      break;
    case FaultKind::kDelayReorder:
      // 30% of frames take up to 4 µs extra — enough to overtake frames
      // sent later, exercising the receiver's reorder buffer.
      plan.rules.push_back({.delay = 0.30, .delay_ns = 4000});
      break;
    case FaultKind::kBrownout:
      // The wire goes dark for 40 µs early in the run; recovery rides
      // the capped exponential backoff.
      plan.brownouts.push_back({.begin = 10'000, .end = 50'000});
      break;
  }
  return plan;
}

const char* kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kDrop1: return "drop1";
    case FaultKind::kDrop10: return "drop10";
    case FaultKind::kDup5: return "dup5";
    case FaultKind::kDelayReorder: return "delayreorder";
    case FaultKind::kBrownout: return "brownout";
  }
  return "x";
}

const char* mode_name(GasMode m) {
  switch (m) {
    case GasMode::kPgas: return "pgas";
    case GasMode::kAgasSw: return "agassw";
    case GasMode::kAgasNet: return "agasnet";
  }
  return "x";
}

std::string param_name(const ::testing::TestParamInfo<FaultParam>& info) {
  return std::string(kind_name(info.param.kind)) + "_" +
         mode_name(info.param.mode);
}

class FaultMatrixTest : public ::testing::TestWithParam<FaultParam> {
 protected:
  Config make_config(int nodes = 4) const {
    Config cfg = Config::with_nodes(nodes, GetParam().mode);
    cfg.machine.mem_bytes_per_node = 8u << 20;
    cfg.faults = make_plan(GetParam().kind);
    return cfg;
  }

  // Shared postconditions for every cell: the queue drained (no
  // livelock), the fault ledger reconciles, and under lossy plans the
  // injector and the retransmission layer actually saw action.
  void check_world(World& world, gas::InvariantObserver& obs) {
    EXPECT_TRUE(world.engine().idle()) << "event cap hit: retransmit livelock";
    EXPECT_EQ(obs.check_quiescent(world.counters()), "");
    const auto& c = world.counters();
    switch (GetParam().kind) {
      case FaultKind::kDrop1:
      case FaultKind::kDrop10:
        EXPECT_GT(c.faults_injected_drops, 0u);
        EXPECT_GT(c.net_retransmits, 0u);
        break;
      case FaultKind::kDup5:
        EXPECT_GT(c.faults_injected_dups, 0u);
        EXPECT_GT(c.net_dup_discards, 0u);
        break;
      case FaultKind::kDelayReorder:
        EXPECT_GT(c.faults_injected_delays, 0u);
        break;
      case FaultKind::kBrownout:
        EXPECT_GT(c.faults_injected_drops, 0u);
        EXPECT_GT(c.net_retransmits, 0u);
        break;
    }
  }
};

TEST_P(FaultMatrixTest, MemputMemgetMatchSequentialReference) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  constexpr std::uint32_t kBlocks = 8;
  constexpr std::uint32_t kBlockSize = 256;
  bool finished = false;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    std::map<std::uint64_t, std::uint64_t> reference;
    const Gva base = alloc_cyclic(ctx, kBlocks, kBlockSize);
    util::Rng rng(7);
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t w = rng.below(kBlocks * kBlockSize / 8);
      const Gva addr =
          base.advanced(static_cast<std::int64_t>(w) * 8, kBlockSize);
      if (rng.below(2) == 0 || reference.count(w) == 0) {
        const std::uint64_t v = rng.next();
        co_await memput_value<std::uint64_t>(ctx, addr, v);
        reference[w] = v;
      } else {
        const auto v = co_await memget_value<std::uint64_t>(ctx, addr);
        EXPECT_EQ(v, reference.at(w)) << "word " << w << " after op " << i;
      }
    }
    finished = true;
  });
  world.run(kMaxEvents);
  EXPECT_TRUE(finished);
  check_world(world, obs);
}

TEST_P(FaultMatrixTest, FetchAddStaysExactlyOnce) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  const int P = world.ranks();
  constexpr int kPerRank = 8;
  std::uint64_t final_value = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva counter = alloc_cyclic(ctx, 1, 64);
    rt::AndGate gate(static_cast<std::uint64_t>(P));
    const rt::LcoRef gref = ctx.make_ref(gate);
    for (int r = 0; r < P; ++r) {
      ctx.spawn(r, [&, counter, gref](Context& c) -> Fiber {
        for (int i = 0; i < kPerRank; ++i) {
          (void)co_await fetch_add(c, counter, 1);
        }
        c.set_lco(gref);
      });
    }
    co_await gate;
    final_value = co_await memget_value<std::uint64_t>(ctx, counter);
  });
  world.run(kMaxEvents);
  // A lost-and-retransmitted atomic must not double-apply; a dropped
  // reply must not lose the increment.
  EXPECT_EQ(final_value, static_cast<std::uint64_t>(P) * kPerRank);
  check_world(world, obs);
}

TEST_P(FaultMatrixTest, ParcelsEagerAndRendezvousArriveOnce) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  const int P = world.ranks();
  // Enough rounds, spread over ~64 µs, that every plan (1% drop, the
  // 10–50 µs brownout) actually hits frames.
  constexpr int kRounds = 32;
  std::vector<int> small_received(static_cast<std::size_t>(P), 0);
  std::vector<int> large_received(static_cast<std::size_t>(P), 0);
  const auto act = world.runtime().actions().add(
      "test.fault_parcel", [&](Context& c, int /*src*/, util::Buffer payload) {
        auto r = payload.reader();
        const auto magic = r.get<std::uint64_t>();
        EXPECT_EQ(magic, 0xabadcafe'f00dfaceULL);
        if (payload.size() > 4096) {
          ++large_received[static_cast<std::size_t>(c.rank())];
        } else {
          ++small_received[static_cast<std::size_t>(c.rank())];
        }
      });
  world.run_spmd([&](Context& ctx) -> Fiber {
    const int dst = (ctx.rank() + 1) % ctx.ranks();
    for (int round = 0; round < kRounds; ++round) {
      util::Buffer small;
      small.put<std::uint64_t>(0xabadcafe'f00dfaceULL);
      ctx.send(dst, act, std::move(small));
      if (round % 8 == 0) {
        util::Buffer large;
        large.put<std::uint64_t>(0xabadcafe'f00dfaceULL);
        const std::vector<std::byte> fill(8192, std::byte{0x5a});
        large.append_raw(fill);  // above eager_threshold: rendezvous path
        ctx.send(dst, act, std::move(large));
      }
      co_await ctx.sleep(2000);
    }
  });
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(small_received[static_cast<std::size_t>(r)], kRounds)
        << "rank " << r;
    EXPECT_EQ(large_received[static_cast<std::size_t>(r)], kRounds / 8)
        << "rank " << r;
  }
  check_world(world, obs);
}

TEST_P(FaultMatrixTest, MigrationSurvivesFaults) {
  World world(make_config());
  if (!world.gas().supports_migration()) GTEST_SKIP();
  gas::InvariantObserver obs(world.gas());
  bool finished = false;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva block = alloc_cyclic(ctx, 1, 1024);
    std::vector<std::byte> payload(1024);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::byte>(i % 251);
    }
    co_await memput(ctx, block, payload);
    // Bounce the block around the cluster; control, transfer, and commit
    // frames are all fault-exposed.
    for (int hop = 1; hop < ctx.ranks(); ++hop) {
      co_await migrate(ctx, block, hop);
      EXPECT_EQ(world.gas().owner_of(block).first, hop);
      const auto back = co_await memget(ctx, block, 1024);
      EXPECT_EQ(back, payload) << "after hop " << hop;
    }
    co_await memput_value<std::uint64_t>(ctx, block, 0xfeedULL);
    const auto v = co_await memget_value<std::uint64_t>(ctx, block);
    EXPECT_EQ(v, 0xfeedULL);
    finished = true;
  });
  world.run(kMaxEvents);
  EXPECT_TRUE(finished);
  check_world(world, obs);
}

TEST_P(FaultMatrixTest, FenceAndSignalFireExactlyOnce) {
  World world(make_config());
  gas::InvariantObserver obs(world.gas());
  const int P = world.ranks();
  // Rounds spread over ~50 µs so the brownout window sees traffic and a
  // 1% drop plan draws enough gates to fire; each round signals a fresh
  // slot, so a duplicated or reordered signal would double-count.
  constexpr int kSignalRounds = 24;
  constexpr std::uint64_t kMagic = 0xfeedbee5'00000000ULL;
  std::uint64_t consumed = 0;
  std::uint64_t fadd_total = 0;
  int barriers_passed = 0;
  std::vector<rt::Event> events(kSignalRounds);
  std::vector<rt::LcoRef> refs;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, static_cast<std::uint32_t>(P), 256);
    // Slot block homed on rank P-1; the consumer waits on the remote ledger.
    Gva slot = base;
    while (slot.home(ctx.ranks()) != P - 1) slot = slot.advanced(256, 256);
    for (int r = 0; r < kSignalRounds; ++r) {
      refs.push_back(world.runtime().register_lco(P - 1, events[r]));
    }
    rt::Future<std::uint64_t> result;
    const rt::LcoRef rref = ctx.make_ref(result);
    ctx.spawn(P - 1, [&, slot, rref](Context& c) -> Fiber {
      std::uint64_t sum = 0;
      for (int r = 0; r < kSignalRounds; ++r) {
        co_await events[static_cast<std::size_t>(r)];  // data visible locally
        sum += co_await memget_value<std::uint64_t>(
            c, slot.advanced(r * 8, 256));
      }
      util::Buffer rb;
      rb.put<std::uint64_t>(sum);
      c.set_lco(rref, std::move(rb));
    });
    const Gva counter = slot.advanced(192, 256);  // word 24: fadd scratch
    for (int r = 0; r < kSignalRounds; ++r) {
      for (int k = 0; k < 4; ++k) {
        (void)co_await fetch_add(ctx, counter, 1);
      }
      co_await memput_signal_value<std::uint64_t>(
          ctx, slot.advanced(r * 8, 256),
          kMagic + static_cast<std::uint64_t>(r),
          refs[static_cast<std::size_t>(r)]);
      co_await ctx.sleep(2000);
    }
    fadd_total = co_await fetch_add(ctx, counter, 0);
    consumed = co_await result;
  });
  world.run(kMaxEvents);
  std::uint64_t expect_sum = 0;
  for (int r = 0; r < kSignalRounds; ++r) {
    expect_sum += kMagic + static_cast<std::uint64_t>(r);
  }
  EXPECT_EQ(consumed, expect_sum);
  EXPECT_EQ(fadd_total, static_cast<std::uint64_t>(kSignalRounds) * 4);
  // A full barrier round under faults: collective control traffic is
  // fault-exposed too. (Fresh world: run_spmd asserts no fiber deadlock.)
  World world2(make_config());
  gas::InvariantObserver obs2(world2.gas());
  world2.run_spmd([&](Context& ctx) -> Fiber {
    for (int round = 0; round < 3; ++round) {
      co_await world2.coll().barrier(ctx);
    }
    ++barriers_passed;
    co_return;
  });
  EXPECT_EQ(barriers_passed, P);
  check_world(world, obs);
  EXPECT_EQ(obs2.check_quiescent(world2.counters()), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, FaultMatrixTest,
    ::testing::Values(
        FaultParam{FaultKind::kDrop1, GasMode::kPgas},
        FaultParam{FaultKind::kDrop1, GasMode::kAgasSw},
        FaultParam{FaultKind::kDrop1, GasMode::kAgasNet},
        FaultParam{FaultKind::kDrop10, GasMode::kPgas},
        FaultParam{FaultKind::kDrop10, GasMode::kAgasSw},
        FaultParam{FaultKind::kDrop10, GasMode::kAgasNet},
        FaultParam{FaultKind::kDup5, GasMode::kPgas},
        FaultParam{FaultKind::kDup5, GasMode::kAgasSw},
        FaultParam{FaultKind::kDup5, GasMode::kAgasNet},
        FaultParam{FaultKind::kDelayReorder, GasMode::kPgas},
        FaultParam{FaultKind::kDelayReorder, GasMode::kAgasSw},
        FaultParam{FaultKind::kDelayReorder, GasMode::kAgasNet},
        FaultParam{FaultKind::kBrownout, GasMode::kPgas},
        FaultParam{FaultKind::kBrownout, GasMode::kAgasSw},
        FaultParam{FaultKind::kBrownout, GasMode::kAgasNet}),
    param_name);

// ---------------------------------------------------------------------------
// Inertness: an inactive plan must leave the event stream byte-identical.
// ---------------------------------------------------------------------------

std::uint64_t run_workload_hash(Config cfg) {
  World world(cfg);
  world.run_spmd([&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 8, 256);
    const int next = (ctx.rank() + 1) % ctx.ranks();
    co_await memput_value<std::uint64_t>(
        ctx, base.advanced(next * 256, 256),
        static_cast<std::uint64_t>(ctx.rank()));
    co_await world.coll().barrier(ctx);
    (void)co_await memget_value<std::uint64_t>(
        ctx, base.advanced(ctx.rank() * 256, 256));
    (void)co_await fetch_add(ctx, base, 1);
  });
  return world.engine().trace_hash();
}

TEST(FaultInertnessTest, InactivePlansAreByteIdentical) {
  for (const GasMode mode :
       {GasMode::kPgas, GasMode::kAgasSw, GasMode::kAgasNet}) {
    Config plain = Config::with_nodes(4, mode);

    Config empty_plan = Config::with_nodes(4, mode);
    empty_plan.faults = sim::FaultPlan{};  // explicitly empty
    empty_plan.faults.seed = 0xdeadbeef;   // seed alone must not arm it

    Config zero_rules = Config::with_nodes(4, mode);
    zero_rules.faults.rules.push_back({.drop = 0.0, .dup = 0.0, .delay = 0.0});
    zero_rules.faults.brownouts.push_back({.begin = 500, .end = 500});  // empty

    const std::uint64_t h0 = run_workload_hash(plain);
    EXPECT_EQ(run_workload_hash(empty_plan), h0) << mode_name(mode);
    EXPECT_EQ(run_workload_hash(zero_rules), h0) << mode_name(mode);

    // Sanity: an ACTIVE plan must perturb the stream (headers, seqs,
    // ack timers), otherwise this test proves nothing.
    Config armed = Config::with_nodes(4, mode);
    armed.faults.rules.push_back({.drop = 0.05});
    EXPECT_NE(run_workload_hash(armed), h0) << mode_name(mode);
  }
}

TEST(FaultInertnessTest, ArmedRunsAreDeterministic) {
  for (const FaultKind kind :
       {FaultKind::kDrop10, FaultKind::kDup5, FaultKind::kDelayReorder}) {
    Config cfg = Config::with_nodes(4, GasMode::kAgasNet);
    cfg.faults = make_plan(kind);
    const std::uint64_t h1 = run_workload_hash(cfg);
    const std::uint64_t h2 = run_workload_hash(cfg);
    EXPECT_EQ(h1, h2) << kind_name(kind);
  }
}

// Forced (deterministic) drops: the nth frame on a link dies exactly
// once, and recovery still yields the right payload.
TEST(FaultForcedDropTest, NthFrameDropRecovers) {
  Config cfg = Config::with_nodes(2, GasMode::kAgasNet);
  cfg.faults.forced_drops.push_back({.src = 0, .dst = 1, .nth = 0});
  World world(cfg);
  gas::InvariantObserver obs(world.gas());
  std::uint64_t got = 0;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    const Gva base = alloc_cyclic(ctx, 2, 256);
    const Gva remote = base.home(2) == 1 ? base : base.advanced(256, 256);
    co_await memput_value<std::uint64_t>(ctx, remote, 0x1234);
    got = co_await memget_value<std::uint64_t>(ctx, remote);
  });
  world.run(kMaxEvents);
  EXPECT_EQ(got, 0x1234u);
  EXPECT_TRUE(world.engine().idle());
  EXPECT_EQ(world.counters().faults_injected_drops, 1u);
  EXPECT_GT(world.counters().net_retransmits, 0u);
  EXPECT_EQ(obs.check_quiescent(world.counters()), "");
}

}  // namespace
}  // namespace nvgas
