#include "sim/cpu.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <vector>

#include "sim/counters.hpp"
#include "sim/engine.hpp"

namespace nvgas::sim {
namespace {

struct CpuFixture : ::testing::Test {
  Engine engine;
  Counters counters;
};

TEST_F(CpuFixture, TaskRunsImmediatelyWhenIdle) {
  Cpu cpu(engine, 0, 1, counters);
  Time started = ~0ULL;
  cpu.submit([&](TaskCtx& ctx) { started = ctx.start(); });
  engine.run();
  EXPECT_EQ(started, 0u);
  EXPECT_EQ(cpu.tasks_run(), 1u);
}

TEST_F(CpuFixture, ChargeOccupiesWorker) {
  Cpu cpu(engine, 0, 1, counters);
  std::vector<Time> starts;
  for (int i = 0; i < 3; ++i) {
    cpu.submit([&](TaskCtx& ctx) {
      starts.push_back(ctx.start());
      ctx.charge(100);
    });
  }
  engine.run();
  EXPECT_EQ(starts, (std::vector<Time>{0, 100, 200}));
  EXPECT_EQ(cpu.busy_ns(), 300u);
  EXPECT_EQ(counters.cpu_busy_ns, 300u);
  EXPECT_EQ(counters.cpu_tasks, 3u);
}

TEST_F(CpuFixture, TwoWorkersRunInParallel) {
  Cpu cpu(engine, 0, 2, counters);
  std::vector<Time> starts;
  for (int i = 0; i < 4; ++i) {
    cpu.submit([&](TaskCtx& ctx) {
      starts.push_back(ctx.start());
      ctx.charge(100);
    });
  }
  engine.run();
  EXPECT_EQ(starts, (std::vector<Time>{0, 0, 100, 100}));
}

TEST_F(CpuFixture, NowReflectsCharges) {
  Cpu cpu(engine, 0, 1, counters);
  std::vector<Time> marks;
  cpu.submit([&](TaskCtx& ctx) {
    marks.push_back(ctx.now());
    ctx.charge(40);
    marks.push_back(ctx.now());
    ctx.charge(60);
    marks.push_back(ctx.now());
  });
  engine.run();
  EXPECT_EQ(marks, (std::vector<Time>{0, 40, 100}));
}

TEST_F(CpuFixture, SubmitAtDefersStart) {
  Cpu cpu(engine, 0, 1, counters);
  Time started = 0;
  cpu.submit_at(500, [&](TaskCtx& ctx) { started = ctx.start(); });
  engine.run();
  EXPECT_EQ(started, 500u);
}

TEST_F(CpuFixture, TasksSubmittedFromTasksRun) {
  Cpu cpu(engine, 0, 1, counters);
  std::vector<Time> starts;
  cpu.submit([&](TaskCtx& ctx) {
    ctx.charge(50);
    cpu.submit([&](TaskCtx& inner) {
      starts.push_back(inner.start());
    });
  });
  engine.run();
  // The nested task waits for the first one's 50 ns charge.
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 50u);
}

TEST_F(CpuFixture, QueueDrainsAfterBusyPeriod) {
  Cpu cpu(engine, 0, 1, counters);
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    cpu.submit([&](TaskCtx& ctx) {
      ctx.charge(10);
      ++done;
    });
  }
  engine.run();
  EXPECT_EQ(done, 100);
  EXPECT_EQ(cpu.busy_ns(), 1000u);
  EXPECT_EQ(cpu.queue_depth(), 0u);
}

TEST_F(CpuFixture, ZeroCostTasksAllRunAtOnce) {
  Cpu cpu(engine, 0, 1, counters);
  std::vector<Time> starts;
  for (int i = 0; i < 5; ++i) {
    cpu.submit([&](TaskCtx& ctx) { starts.push_back(ctx.start()); });
  }
  engine.run();
  for (auto s : starts) EXPECT_EQ(s, 0u);
}

TEST_F(CpuFixture, InterleavedSubmitAtPreservesWorkerModel) {
  Cpu cpu(engine, 0, 1, counters);
  std::vector<std::pair<int, Time>> log;
  cpu.submit([&](TaskCtx& ctx) {
    log.emplace_back(1, ctx.start());
    ctx.charge(1000);
  });
  cpu.submit_at(100, [&](TaskCtx& ctx) {
    log.emplace_back(2, ctx.start());
    ctx.charge(10);
  });
  engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], std::make_pair(1, Time{0}));
  // Task 2 became ready at t=100 but the single worker is busy until 1000.
  EXPECT_EQ(log[1], std::make_pair(2, Time{1000}));
}

// The run queue is a ring that grows by doubling. Ten tasks wait behind
// a busy worker; the second of them submits forty more while the ring's
// head is past slot 0, so the queue wraps and then grows twice, and a
// later task submits thirty more across the wrap point of the grown
// ring. Every task checks it is the FIFO head of a reference queue and
// that queue_depth() matches after its pop.
TEST_F(CpuFixture, RunQueueKeepsFifoAcrossGrowthAndWrap) {
  Cpu cpu(engine, 0, 1, counters);
  std::deque<int> model;
  std::vector<int> ran;
  int next_id = 0;
  std::function<void(int)> submit = [&](int burst) {
    for (int i = 0; i < burst; ++i) {
      const int id = next_id++;
      model.push_back(id);
      cpu.submit([&, id](TaskCtx& ctx) {
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(model.front(), id);
        model.pop_front();
        EXPECT_EQ(cpu.queue_depth(), model.size()) << "task " << id;
        ran.push_back(id);
        ctx.charge(10);
        if (id == 1) submit(40);
        if (id == 30) submit(30);
      });
    }
  };
  cpu.submit([](TaskCtx& ctx) { ctx.charge(100); });  // the busy worker
  submit(10);
  EXPECT_EQ(cpu.queue_depth(), 10u);
  engine.run();
  ASSERT_EQ(ran.size(), 80u);
  for (int i = 0; i < 80; ++i) EXPECT_EQ(ran[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(cpu.queue_depth(), 0u);
  EXPECT_EQ(cpu.busy_ns(), 100u + 80u * 10u);
}

}  // namespace
}  // namespace nvgas::sim
