// Parcels, actions, remote LCO sets, collectives.
#include <gtest/gtest.h>

#include <vector>

#include "net/endpoint.hpp"
#include "rt/collectives.hpp"
#include "rt/runtime.hpp"
#include "sim/fabric.hpp"

namespace nvgas::rt {
namespace {

struct ActionFixture : ::testing::Test {
  ActionFixture()
      : fabric(machine()), group(fabric, net::NetConfig{}), rt(fabric, group) {}

  static sim::MachineParams machine() {
    sim::MachineParams p;
    p.nodes = 8;
    p.workers_per_node = 2;
    p.mem_bytes_per_node = 1 << 20;
    return p;
  }

  sim::Fabric fabric;
  net::EndpointGroup group;
  Runtime rt;
};

TEST_F(ActionFixture, TypedActionDecodesArguments) {
  int seen_src = -1;
  std::uint64_t seen_a = 0;
  double seen_b = 0;
  const auto act = register_action<std::uint64_t, double>(
      rt.actions(), "test.echo",
      [&](Context&, int src, std::uint64_t a, double b) {
        seen_src = src;
        seen_a = a;
        seen_b = b;
      });
  rt.spawn(3, [&](Context& ctx) -> Fiber {
    ctx.send(5, act, pack_args(std::uint64_t{99}, 2.5));
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(seen_src, 3);
  EXPECT_EQ(seen_a, 99u);
  EXPECT_DOUBLE_EQ(seen_b, 2.5);
}

TEST_F(ActionFixture, ActionRunsOnDestinationNode) {
  int ran_on = -1;
  const auto act = rt.actions().add("test.where", [&](Context& c, int, util::Buffer) {
    ran_on = c.rank();
  });
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.send(6, act, {});
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(ran_on, 6);
}

TEST_F(ActionFixture, ParcelLatencyIncludesWireAndCpuCosts) {
  sim::Time handled_at = 0;
  const auto act = rt.actions().add("test.t", [&](Context& c, int, util::Buffer) {
    handled_at = c.now();
  });
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.send(1, act, {});
    co_return;
  });
  fabric.engine().run();
  // At minimum: spawn + o_send + gap + wire + rx gap + o_recv + dispatch.
  const sim::Time lower_bound = kSpawnNs + sim::kCpuSendOverheadNs +
                                sim::kNicGapNs + sim::kWireLatencyNs +
                                sim::kNicGapNs + sim::kCpuRecvOverheadNs +
                                kActionDispatchNs;
  EXPECT_GE(handled_at, lower_bound);
  EXPECT_LT(handled_at, lower_bound + 2000);
}

TEST_F(ActionFixture, ActionsCanBeFibers) {
  std::vector<sim::Time> marks;
  const auto act = rt.actions().add("test.fiber", [&](Context& c, int, util::Buffer) {
    [](Context& ctx, std::vector<sim::Time>& out) -> Fiber {
      out.push_back(ctx.now());
      co_await ctx.sleep(100);
      out.push_back(ctx.now());
    }(c, marks);
  });
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.send(2, act, {});
    co_return;
  });
  fabric.engine().run();
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_GT(marks[1], marks[0] + 100);
}

TEST_F(ActionFixture, RemoteLcoSetResumesOwner) {
  // Rank 0 waits on a gate; ranks 1..7 contribute remotely via LcoRef.
  int resumed = 0;
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    AndGate gate(7);
    const LcoRef ref = ctx.make_ref(gate);
    for (int dst = 1; dst < 8; ++dst) {
      ctx.spawn(dst, [ref](Context& c) -> Fiber {
        c.set_lco(ref);
        co_return;
      });
    }
    co_await gate;
    ++resumed;
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(resumed, 1);
}

TEST_F(ActionFixture, RemoteFutureSetCarriesValue) {
  std::uint64_t got = 0;
  rt.spawn(2, [&](Context& ctx) -> Fiber {
    Future<std::uint64_t> fut;
    const LcoRef ref = ctx.make_ref(fut);
    ctx.spawn(5, [ref](Context& c) -> Fiber {
      util::Buffer v;
      v.put<std::uint64_t>(31337);
      c.set_lco(ref, std::move(v));
      co_return;
    });
    got = co_await fut;
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(got, 31337u);
}

TEST_F(ActionFixture, LocalLcoSetAvoidsParcels) {
  const auto parcels_before = fabric.counters().parcels_sent;
  rt.spawn(4, [&](Context& ctx) -> Fiber {
    Event ev;
    const LcoRef ref = ctx.make_ref(ev);
    ctx.set_lco(ref);
    co_await ev;
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(fabric.counters().parcels_sent, parcels_before);
}

TEST_F(ActionFixture, PingPongManyRounds) {
  // Explicit continuation-passing ping-pong across two ranks.
  struct State {
    int rounds = 0;
    Event done;
  } state;
  ActionId pong_id{};
  const ActionId ping_id = register_action<int>(
      rt.actions(), "test.ping", [&](Context& c, int src, int round) {
        c.send(src, pong_id, pack_args(round));
      });
  pong_id = register_action<int>(
      rt.actions(), "test.pong", [&](Context& c, int, int round) {
        ++state.rounds;
        if (round + 1 < 32) {
          c.send(1, ping_id, pack_args(round + 1));
        } else {
          state.done.set(c.now());
        }
      });
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.send(1, ping_id, pack_args(0));
    co_await state.done;
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(state.rounds, 32);
}

// --- collectives -----------------------------------------------------------

struct CollFixture : ActionFixture {
  CollFixture() : coll(rt) {}
  Collectives coll;
};

TEST_F(CollFixture, BarrierReleasesAllRanks) {
  std::vector<sim::Time> exit_times(8, 0);
  int exited = 0;
  for (int r = 0; r < 8; ++r) {
    rt.spawn(r, [&, r](Context& ctx) -> Fiber {
      // Stagger arrivals: rank r waits r microseconds first.
      co_await ctx.sleep(static_cast<sim::Time>(r) * 1000);
      co_await coll.barrier(ctx);
      exit_times[static_cast<std::size_t>(r)] = ctx.now();
      ++exited;
    });
  }
  fabric.engine().run();
  EXPECT_EQ(exited, 8);
  // No rank may exit before the slowest rank arrived (t >= 7 us).
  for (auto t : exit_times) EXPECT_GE(t, 7000u);
}

TEST_F(CollFixture, TwoConsecutiveBarriersDoNotDeadlock) {
  int phase2 = 0;
  for (int r = 0; r < 8; ++r) {
    rt.spawn(r, [&](Context& ctx) -> Fiber {
      co_await coll.barrier(ctx);
      co_await coll.barrier(ctx);
      ++phase2;
    });
  }
  fabric.engine().run();
  EXPECT_EQ(phase2, 8);
}

TEST_F(CollFixture, AllreduceSumsAcrossRanks) {
  std::vector<double> results(8, -1);
  for (int r = 0; r < 8; ++r) {
    rt.spawn(r, [&, r](Context& ctx) -> Fiber {
      results[static_cast<std::size_t>(r)] =
          co_await coll.allreduce_sum(ctx, static_cast<double>(r + 1));
    });
  }
  fabric.engine().run();
  for (auto v : results) EXPECT_DOUBLE_EQ(v, 36.0);  // 1+..+8
}

TEST_F(CollFixture, MixedCollectiveSequence) {
  std::vector<double> sums(8, 0);
  int done = 0;
  for (int r = 0; r < 8; ++r) {
    rt.spawn(r, [&, r](Context& ctx) -> Fiber {
      co_await coll.barrier(ctx);
      const double s1 = co_await coll.allreduce_sum(ctx, 1.0);
      co_await coll.barrier(ctx);
      const double s2 = co_await coll.allreduce_sum(ctx, s1);
      sums[static_cast<std::size_t>(r)] = s2;
      ++done;
    });
  }
  fabric.engine().run();
  EXPECT_EQ(done, 8);
  for (auto v : sums) EXPECT_DOUBLE_EQ(v, 64.0);
}

TEST_F(ActionFixture, DeterministicTraceAcrossRuns) {
  auto run_once = [] {
    sim::Fabric f(machine());
    net::EndpointGroup g(f, net::NetConfig{});
    Runtime r(f, g);
    Collectives coll(r);
    for (int n = 0; n < 8; ++n) {
      r.spawn(n, [&coll](Context& ctx) -> Fiber {
        co_await coll.barrier(ctx);
        (void)co_await coll.allreduce_sum(ctx, 1.0);
      });
    }
    f.engine().run();
    return f.engine().trace_hash();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nvgas::rt
