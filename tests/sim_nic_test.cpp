#include "sim/nic.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/fabric.hpp"

namespace nvgas::sim {
namespace {

// The expected times below are worked out by hand from the machine
// constants: L = kWireLatencyNs = 900, g = kNicGapNs = 40 and
// G = kByteTimeNs = 0.233 ns/B, rounded up to whole ns per message
// (100 B -> 24 ns, 1 KiB -> 239 ns, 1 MiB -> 244319 ns).
static_assert(kWireLatencyNs == 900 && kNicGapNs == 40 && kByteTimeNs == 0.233);

MachineParams small_machine() {
  MachineParams p;
  p.nodes = 4;
  p.workers_per_node = 1;
  p.mem_bytes_per_node = 1 << 20;
  return p;
}

TEST(Nic, SingleMessageTiming) {
  Fabric f(small_machine());
  Time delivered = 0;
  f.nic(0).send(0, 1, 100, [&](Time t) { delivered = t; });
  f.engine().run();
  // tx: 0 + g(40) + ceil(100 B * 0.233) = 64; wire: +900 = 964; rx gap: +40.
  EXPECT_EQ(delivered, 1004u);
}

TEST(Nic, ZeroByteMessageStillPaysGapAndLatency) {
  Fabric f(small_machine());
  Time delivered = 0;
  f.nic(0).send(0, 1, 0, [&](Time t) { delivered = t; });
  f.engine().run();
  EXPECT_EQ(delivered, 40u + 900u + 40u);
}

TEST(Nic, TxPortSerializesBackToBackSends) {
  Fabric f(small_machine());
  std::vector<Time> deliveries;
  for (int i = 0; i < 3; ++i) {
    f.nic(0).send(0, 1, 100, [&](Time t) { deliveries.push_back(t); });
  }
  f.engine().run();
  ASSERT_EQ(deliveries.size(), 3u);
  // Each message occupies the tx port for 40 + 24 = 64 ns.
  EXPECT_EQ(deliveries[0], 1004u);
  EXPECT_EQ(deliveries[1], 1068u);
  EXPECT_EQ(deliveries[2], 1132u);
}

TEST(Nic, RxPortSerializesFanIn) {
  Fabric f(small_machine());
  std::vector<Time> deliveries;
  // Two different senders target node 2 with simultaneous departures.
  f.nic(0).send(0, 2, 100, [&](Time t) { deliveries.push_back(t); });
  f.nic(1).send(0, 2, 100, [&](Time t) { deliveries.push_back(t); });
  f.engine().run();
  ASSERT_EQ(deliveries.size(), 2u);
  // Both hit the rx port at 64 + 900 = 964; the port takes them 40 ns apart.
  EXPECT_EQ(deliveries[0], 1004u);
  EXPECT_EQ(deliveries[1], 1044u);
}

TEST(Nic, LoopbackSkipsWire) {
  Fabric f(small_machine());
  Time delivered = 0;
  f.nic(1).send(0, 1, 100, [&](Time t) { delivered = t; });
  f.engine().run();
  EXPECT_EQ(delivered, 64u + 0u + 40u);
}

TEST(Nic, FlatFabricIsOneWireLatencyPerPair) {
  MachineParams p = small_machine();
  p.nodes = 16;
  Fabric f(p);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      EXPECT_EQ(f.latency(a, b), a == b ? 0 : kWireLatencyNs) << a << "->" << b;
    }
  }
}

TEST(Nic, DepartureTimeRespected) {
  Fabric f(small_machine());
  Time delivered = 0;
  f.engine().at(0, [&] {
    f.nic(0).send(500, 1, 0, [&](Time t) { delivered = t; });
  });
  f.engine().run();
  EXPECT_EQ(delivered, 500u + 40u + 900u + 40u);
}

TEST(Nic, CountersTrackTraffic) {
  Fabric f(small_machine());
  f.nic(0).send(0, 1, 64, [](Time) {});
  f.nic(0).send(0, 2, 36, [](Time) {});
  f.engine().run();
  EXPECT_EQ(f.counters().messages_sent, 2u);
  EXPECT_EQ(f.counters().bytes_sent, 100u);
  EXPECT_EQ(f.counters().messages_delivered, 2u);
  EXPECT_EQ(f.counters().bytes_delivered, 100u);
  EXPECT_EQ(f.nic(0).tx_messages(), 2u);
  EXPECT_EQ(f.nic(1).rx_messages(), 1u);
  EXPECT_EQ(f.nic(2).rx_messages(), 1u);
}

TEST(Nic, CommandProcessorSerializes) {
  Fabric f(small_machine());
  auto& nic = f.nic(0);
  EXPECT_EQ(nic.occupy_command_processor(0, 100), 100u);
  EXPECT_EQ(nic.occupy_command_processor(50, 100), 200u);  // queued behind first
  EXPECT_EQ(nic.occupy_command_processor(500, 100), 600u); // idle gap before
}

TEST(Nic, BandwidthShapeLargeVsSmall) {
  // 1 MiB in one message vs 1 MiB in 1024 messages: the many-message
  // variant pays 1024 gaps, the single message only one.
  auto run = [](int messages, std::uint64_t bytes_each) {
    Fabric f(small_machine());
    Time last = 0;
    for (int i = 0; i < messages; ++i) {
      f.nic(0).send(0, 1, bytes_each, [&](Time t) { last = std::max(last, t); });
    }
    f.engine().run();
    return last;
  };
  const Time one_big = run(1, 1 << 20);
  const Time many_small = run(1024, 1 << 10);
  EXPECT_GT(many_small, one_big);
  // Overhead difference should be close to 1023 extra gaps (tx side):
  // (1024 * 279 + 900 + 40) - (40 + 244319 + 900 + 40) = 41337, which is
  // 1023 * 40 plus the per-message rounding up of G.
  EXPECT_NEAR(static_cast<double>(many_small - one_big), 1023.0 * 40.0, 2048.0);
}

TEST(Nic, JitterIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    MachineParams p = small_machine();
    p.wire_jitter_ns = 500;
    p.jitter_seed = seed;
    Fabric f(p);
    std::vector<Time> deliveries;
    for (int i = 0; i < 16; ++i) {
      f.nic(0).send(0, 1, 64, [&](Time t) { deliveries.push_back(t); });
    }
    f.engine().run();
    return deliveries;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Nic, JitterBoundedByConfiguredMax) {
  MachineParams p = small_machine();
  p.wire_jitter_ns = 300;
  Fabric f(p);
  // Deliveries of identical messages (issued back to back) must fall in
  // [base, base + jitter) relative to the no-jitter schedule.
  std::vector<Time> with_jitter;
  for (int i = 0; i < 64; ++i) {
    f.nic(0).send(0, 1, 0, [&](Time t) { with_jitter.push_back(t); });
  }
  f.engine().run();

  MachineParams q = small_machine();
  Fabric g(q);
  std::vector<Time> baseline;
  for (int i = 0; i < 64; ++i) {
    g.nic(0).send(0, 1, 0, [&](Time t) { baseline.push_back(t); });
  }
  g.engine().run();

  ASSERT_EQ(with_jitter.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_GE(with_jitter[i], baseline[i]);
    EXPECT_LT(with_jitter[i], baseline[i] + 300 + 40 /*rx queue slack: one g*/);
  }
}

}  // namespace
}  // namespace nvgas::sim
