// Fiber + LCO mechanics: suspension, resumption timing, cost accounting.
#include <gtest/gtest.h>

#include <vector>

#include "net/endpoint.hpp"
#include "rt/lco.hpp"
#include "rt/runtime.hpp"
#include "sim/fabric.hpp"

namespace nvgas::rt {
namespace {

struct RtFixture : ::testing::Test {
  RtFixture()
      : fabric(machine()), group(fabric, net::NetConfig{}), rt(fabric, group) {}

  static sim::MachineParams machine() {
    sim::MachineParams p;
    p.nodes = 4;
    p.workers_per_node = 1;
    p.mem_bytes_per_node = 1 << 20;
    return p;
  }

  sim::Fabric fabric;
  net::EndpointGroup group;
  Runtime rt;
};

TEST_F(RtFixture, FiberRunsFirstSegmentEagerly) {
  bool ran = false;
  rt.spawn(0, [&](Context&) -> Fiber {
    ran = true;
    co_return;
  });
  fabric.engine().run();
  EXPECT_TRUE(ran);
}

TEST_F(RtFixture, SleepSuspendsAndResumesAtTheRightTime) {
  std::vector<sim::Time> marks;
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    marks.push_back(ctx.now());
    co_await ctx.sleep(1000);
    marks.push_back(ctx.now());
    co_await ctx.sleep(500);
    marks.push_back(ctx.now());
  });
  fabric.engine().run();
  ASSERT_EQ(marks.size(), 3u);
  // Segment 1 starts after the spawn cost.
  EXPECT_EQ(marks[0], kSpawnNs);
  // Resume adds the fiber_resume cost after the sleep.
  EXPECT_EQ(marks[1], marks[0] + 1000 + kFiberResumeNs);
  EXPECT_EQ(marks[2], marks[1] + 500 + kFiberResumeNs);
}

TEST_F(RtFixture, ChargeAdvancesFiberTime) {
  sim::Time before = 0;
  sim::Time after = 0;
  rt.spawn(2, [&](Context& ctx) -> Fiber {
    before = ctx.now();
    ctx.charge(12345);
    after = ctx.now();
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(after - before, 12345u);
  EXPECT_GE(fabric.cpu(2).busy_ns(), 12345u);
}

TEST_F(RtFixture, EventWakesWaiter) {
  Event ev;
  std::vector<int> order;
  rt.spawn(0, [&](Context&) -> Fiber {
    order.push_back(1);
    co_await ev;
    order.push_back(3);
  });
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.charge(5000);
    order.push_back(2);
    ev.set(ctx.now());
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(ev.triggered());
}

TEST_F(RtFixture, AwaitOnTriggeredLcoContinuesSynchronously) {
  Event ev;
  std::vector<sim::Time> marks;
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    ev.set(ctx.now());
    marks.push_back(ctx.now());
    co_await ev;  // already set: no suspension, no resume cost
    marks.push_back(ctx.now());
  });
  fabric.engine().run();
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[0], marks[1]);
}

TEST_F(RtFixture, FutureDeliversValue) {
  Future<std::uint64_t> fut;
  std::uint64_t got = 0;
  rt.spawn(1, [&](Context&) -> Fiber {
    got = co_await fut;
  });
  rt.spawn(3, [&](Context& ctx) -> Fiber {
    co_await ctx.sleep(100);
    fut.set(ctx.now(), 0xabcdef);
  });
  fabric.engine().run();
  EXPECT_EQ(got, 0xabcdefu);
}

TEST_F(RtFixture, MultipleWaitersAllResume) {
  Event ev;
  int resumed = 0;
  for (int i = 0; i < 5; ++i) {
    rt.spawn(i % 4, [&](Context&) -> Fiber {
      co_await ev;
      ++resumed;
    });
  }
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    co_await ctx.sleep(10);
    ev.set(ctx.now());
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(resumed, 5);
}

TEST_F(RtFixture, AndGateFiresAfterAllArrivals) {
  AndGate gate(3);
  bool fired = false;
  rt.spawn(0, [&](Context&) -> Fiber {
    co_await gate;
    fired = true;
  });
  for (int i = 0; i < 3; ++i) {
    rt.spawn(1, [&, i](Context& ctx) -> Fiber {
      co_await ctx.sleep(static_cast<sim::Time>(100 * (i + 1)));
      gate.arrive(ctx.now());
    });
  }
  fabric.engine().run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(gate.remaining(), 0u);
}

TEST_F(RtFixture, AndGateOverArrivalAborts) {
  AndGate gate(1);
  gate.arrive(0);
  EXPECT_DEATH(gate.arrive(0), "over-arrived");
}

TEST_F(RtFixture, ReduceCombinesContributions) {
  ReduceLco<std::uint64_t> red(4, 0, [](const std::uint64_t& a, const std::uint64_t& b) {
    return a + b;
  });
  std::uint64_t total = 0;
  rt.spawn(0, [&](Context&) -> Fiber {
    total = co_await red;
  });
  for (int i = 0; i < 4; ++i) {
    rt.spawn(i, [&, i](Context& ctx) -> Fiber {
      red.contribute(ctx.now(), static_cast<std::uint64_t>(i + 1));
      co_return;
    });
  }
  fabric.engine().run();
  EXPECT_EQ(total, 10u);
}

TEST_F(RtFixture, DoubleSetAborts) {
  Event ev;
  ev.set(0);
  EXPECT_DEATH(ev.set(0), "twice");
}

TEST_F(RtFixture, OnTriggerCallbackRuns) {
  Event ev;
  sim::Time cb_time = 0;
  ev.on_trigger(rt, [&](sim::Time t) { cb_time = t; });
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.charge(777);
    ev.set(ctx.now());
    co_return;
  });
  fabric.engine().run();
  EXPECT_EQ(cb_time, kSpawnNs + 777);
}

TEST_F(RtFixture, OnTriggerAfterSetRunsImmediately) {
  Event ev;
  ev.set(42);
  sim::Time cb_time = 0;
  ev.on_trigger(rt, [&](sim::Time t) { cb_time = t; });
  EXPECT_EQ(cb_time, 42u);
}

TEST_F(RtFixture, NestedSpawnInheritsTime) {
  std::vector<sim::Time> starts;
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    ctx.charge(300);
    ctx.spawn(2, [&](Context& inner) -> Fiber {
      starts.push_back(inner.now());
      co_return;
    });
    co_return;
  });
  fabric.engine().run();
  ASSERT_EQ(starts.size(), 1u);
  // Child starts on node 2 no earlier than parent's logical time.
  EXPECT_GE(starts[0], kSpawnNs + 300);
}

TEST_F(RtFixture, SingleWorkerSerializesFibers) {
  // Two charged fibers on the same single-worker node cannot overlap.
  std::vector<std::pair<sim::Time, sim::Time>> spans;
  for (int i = 0; i < 2; ++i) {
    rt.spawn(0, [&](Context& ctx) -> Fiber {
      const sim::Time start = ctx.now();
      ctx.charge(1000);
      spans.emplace_back(start, ctx.now());
      co_return;
    });
  }
  fabric.engine().run();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LE(spans[0].second, spans[1].first + kSpawnNs);
  EXPECT_GE(spans[1].first, spans[0].second - kSpawnNs);
}

TEST_F(RtFixture, ReusedGateSlotAcrossBatchesIsSafe) {
  // Regression: fire() used to clear its waiter list *after* resuming
  // waiters; when a resume ran inline and the fiber constructed a new
  // gate at the same frame address and awaited it, the stale clear wiped
  // the new gate's waiter and the fiber hung forever.
  int batches_done = 0;
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    for (int batch = 0; batch < 5; ++batch) {
      AndGate gate(3);
      for (int i = 0; i < 3; ++i) {
        // Completions arrive from engine-level events (no CPU task
        // active), which is the inline-resume trigger.
        rt.fabric().engine().at(ctx.now() + 100 + static_cast<sim::Time>(i),
                                [&gate, &rt = rt] {
                                  gate.arrive(rt.fabric().engine().now());
                                });
      }
      co_await gate;
      ++batches_done;
    }
  });
  fabric.engine().run();
  EXPECT_EQ(batches_done, 5);
}

TEST_F(RtFixture, FiberMayDestroyLcoRightAfterAwaitReturns) {
  // The LCO dies inside the resumed segment while fire() is still on the
  // stack; fire() must not touch the object after resuming.
  bool done = false;
  rt.spawn(0, [&](Context& ctx) -> Fiber {
    for (int i = 0; i < 3; ++i) {
      auto ev = std::make_unique<Event>();
      Event* raw = ev.get();
      rt.fabric().engine().at(ctx.now() + 50, [raw, &rt = rt] {
        raw->set(rt.fabric().engine().now());
      });
      co_await *ev;
      ev.reset();  // destroy immediately
    }
    done = true;
  });
  fabric.engine().run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace nvgas::rt
