// SimSan death tests: each diagnosed lifetime violation must abort with
// its specific message, and legitimate recycling must stay silent. Only
// built when the tree is configured with -DNVGAS_SIMSAN=ON (see
// tests/CMakeLists.txt); the hooks they poke exist only in that build.
#include <gtest/gtest.h>

#include "net/config.hpp"
#include "net/reliability.hpp"
#include "sim/counters.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "util/inline_function.hpp"

#ifndef NVGAS_SIMSAN
#error "simsan_death_test must be compiled with NVGAS_SIMSAN"
#endif

namespace {

using nvgas::sim::Engine;
using nvgas::util::InlineFunction;

TEST(SimSanDeath, PoisonedInlineFunctionAbortsOnInvoke) {
  InlineFunction<void(), 48> fn = [] {};
  fn();  // legal while live
  fn.poison();
  EXPECT_TRUE(fn.is_poisoned());
  EXPECT_DEATH(fn(), "use-after-recycle");
}

TEST(SimSanDeath, PoisonedSlotMayBeReassignedAndRelocated) {
  InlineFunction<void(), 48> fn = [] {};
  fn.poison();
  // Relocation (pool vector growth) and reassignment (slot reuse) are
  // legal on a poisoned slot; only invocation aborts.
  InlineFunction<void(), 48> moved = std::move(fn);
  EXPECT_TRUE(moved.is_poisoned());
  int hits = 0;
  moved = [&hits] { ++hits; };
  EXPECT_FALSE(moved.is_poisoned());
  moved();
  EXPECT_EQ(hits, 1);
}

TEST(SimSanDeath, EngineUseAfterRecycleAborts) {
  Engine e;
  e.at(10, [] {});
  e.run();
  // The event fired; its pool node (index 0) is recycled and poisoned.
  EXPECT_DEATH(e.simsan_invoke_slot(0), "use-after-recycle|poisoned");
}

TEST(SimSanDeath, DoubleCancelAborts) {
  Engine e;
  auto id = e.at_cancellable(50, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_DEATH((void)e.cancel(id), "double cancel");
}

TEST(SimSanDeath, CancelAfterFireIsNotADoubleCancel) {
  // A stale token for an event that already ran is documented API
  // (returns false); only cancelling an already-cancelled live event is
  // a bug. This must NOT abort.
  Engine e;
  auto id = e.after_cancellable(10, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(Engine::TimerId{}));  // invalid token
}

TEST(SimSanDeath, CpuDoubleUnparkAborts) {
  Engine e;
  nvgas::sim::Counters counters;
  nvgas::sim::Cpu cpu(e, /*node=*/0, /*workers=*/1, counters);
  int ran = 0;
  cpu.submit_at(100, [&ran](nvgas::sim::TaskCtx&) { ++ran; });
  e.run();
  ASSERT_EQ(ran, 1);
  // The parked slot (index 0) was consumed when the task fired.
  EXPECT_DEATH(cpu.simsan_unpark_slot(0), "use-after-recycle");
}

nvgas::sim::MachineParams tiny_machine() {
  nvgas::sim::MachineParams p;
  p.nodes = 2;
  p.workers_per_node = 1;
  p.mem_bytes_per_node = 1 << 20;
  return p;
}

TEST(SimSanDeath, ReliabilityDoubleCancelRtoAborts) {
  nvgas::sim::Fabric fabric(tiny_machine());
  nvgas::net::ReliabilityGroup rels(fabric);
  // Queue a frame but do not run the engine: the window slot is unacked
  // and its retransmit timer armed. Cancelling that live timer twice is
  // the lifetime bug the hook reproduces.
  rels.at(0).send(0, 1, 64, [](nvgas::sim::Time) {});
  EXPECT_DEATH(rels.at(0).simsan_double_cancel_rto(1), "double cancel");
}

TEST(SimSanDeath, ReliabilityHookOnPeerWithoutRecordAborts) {
  nvgas::sim::Fabric fabric(tiny_machine());
  nvgas::net::ReliabilityGroup rels(fabric);
  // Node 0 never exchanged a frame with node 1, so it holds no record:
  // the lookup is a named check, not an out-of-range index.
  EXPECT_DEATH(rels.at(0).simsan_double_cancel_rto(1),
               "no reliability record for this peer");
}

TEST(SimSanDeath, ReliabilityRetiredSlotInvokeAborts) {
  nvgas::sim::Fabric fabric(tiny_machine());
  nvgas::net::ReliabilityGroup rels(fabric);
  int delivered = 0;
  rels.at(0).send(0, 1, 64, [&delivered](nvgas::sim::Time) { ++delivered; });
  fabric.engine().run();  // data, delivery, ack: slot 0 retired + poisoned
  ASSERT_EQ(delivered, 1);
  ASSERT_EQ(rels.at(0).unacked(), 0u);
  EXPECT_DEATH(rels.at(0).simsan_invoke_retired_slot(0), "use-after-recycle");
}

TEST(SimSanDeath, NormalRecyclingStaysSilent) {
  // Heavy pool churn — recycle, reuse, cancel, overflow past the wheel
  // horizon — must not trip any canary or occupancy audit.
  Engine e;
  int fired = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      e.after(static_cast<nvgas::sim::Time>(i + 1), [&fired] { ++fired; });
    }
    auto id = e.after_cancellable(5, [&fired] { ++fired; });
    EXPECT_TRUE(e.cancel(id));
    e.after(2 * Engine::kDefaultHorizonNs, [&fired] { ++fired; });
    e.run();
  }
  EXPECT_EQ(fired, 50 * 21);
}

}  // namespace
