// Endpoint edge cases: zero-length ops, many-to-one contention,
// rendezvous pipelining, ack ordering, raw sends.
#include <gtest/gtest.h>

#include "net/endpoint.hpp"
#include "sim/fabric.hpp"

namespace nvgas::net {
namespace {

sim::MachineParams machine(int nodes = 4) {
  sim::MachineParams p;
  p.nodes = nodes;
  p.workers_per_node = 1;
  p.mem_bytes_per_node = 4u << 20;
  return p;
}

struct EdgeFixture : ::testing::Test {
  EdgeFixture() : fabric(machine()), group(fabric, NetConfig{}) {}
  sim::Fabric fabric;
  EndpointGroup group;
};

TEST_F(EdgeFixture, ZeroLengthPutCompletes) {
  bool done = false;
  group.at(0).put(0, 1, 0, {}, [&](sim::Time) { done = true; });
  fabric.engine().run();
  EXPECT_TRUE(done);
}

TEST_F(EdgeFixture, ZeroLengthGetReturnsEmpty) {
  bool done = false;
  group.at(0).get(0, 1, 0, 0, [&](sim::Time, std::vector<std::byte> data) {
    EXPECT_TRUE(data.empty());
    done = true;
  });
  fabric.engine().run();
  EXPECT_TRUE(done);
}

TEST_F(EdgeFixture, EmptyParcelDelivered) {
  int handled = 0;
  group.at(1).set_parcel_handler(
      [&](sim::TaskCtx&, int, util::Buffer p) {
        EXPECT_TRUE(p.empty());
        ++handled;
      });
  group.at(0).send_parcel(0, 1, {});
  fabric.engine().run();
  EXPECT_EQ(handled, 1);
}

TEST_F(EdgeFixture, ManyToOnePutsAllLandAndSerialize) {
  // Three senders target node 3 simultaneously; rx-port serialization
  // means completions spread out, but every payload must be intact.
  std::vector<sim::Time> completions;
  for (int s = 0; s < 3; ++s) {
    std::vector<std::byte> data(64, static_cast<std::byte>(0x40 + s));
    group.at(s).put(0, 3, static_cast<sim::Lva>(s) * 64, std::move(data),
                    [&](sim::Time t) { completions.push_back(t); });
  }
  fabric.engine().run();
  ASSERT_EQ(completions.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(fabric.mem(3).load<std::uint8_t>(static_cast<sim::Lva>(s) * 64),
              0x40 + s);
  }
}

TEST_F(EdgeFixture, ConcurrentRendezvousParcelsInterleave) {
  NetConfig cfg;
  cfg.eager_threshold = 128;
  sim::Fabric f(machine(3));
  EndpointGroup g(f, cfg);
  std::vector<std::size_t> sizes_seen;
  g.at(2).set_parcel_handler([&](sim::TaskCtx&, int, util::Buffer p) {
    sizes_seen.push_back(p.size());
  });
  // Two big parcels from different sources, plus one eager in between.
  util::Buffer a;
  a.append_raw(std::vector<std::byte>(1000));
  util::Buffer b;
  b.append_raw(std::vector<std::byte>(2000));
  util::Buffer c;
  c.append_raw(std::vector<std::byte>(50));
  g.at(0).send_parcel(0, 2, std::move(a));
  g.at(1).send_parcel(0, 2, std::move(b));
  g.at(0).send_parcel(100, 2, std::move(c));
  f.engine().run();
  ASSERT_EQ(sizes_seen.size(), 3u);
  std::sort(sizes_seen.begin(), sizes_seen.end());
  EXPECT_EQ(sizes_seen, (std::vector<std::size_t>{50, 1000, 2000}));
  EXPECT_EQ(f.counters().parcels_rendezvous, 2u);
  EXPECT_EQ(f.counters().parcels_eager, 1u);
}

TEST_F(EdgeFixture, PutAckReflectsRemoteCompletionTime) {
  // The ack must arrive strictly after one full round trip.
  sim::Time done_at = 0;
  group.at(0).put(0, 1, 0, std::vector<std::byte>(8),
                  [&](sim::Time t) { done_at = t; });
  fabric.engine().run();
  EXPECT_GE(done_at, 2 * sim::kWireLatencyNs);
}

TEST_F(EdgeFixture, RemoteNotifyFiresBeforeSourceAck) {
  sim::Time remote_at = 0;
  sim::Time ack_at = 0;
  group.at(0).put(
      0, 2, 64, std::vector<std::byte>(128),
      [&](sim::Time t) { ack_at = t; }, [&](sim::Time t) { remote_at = t; });
  fabric.engine().run();
  EXPECT_GT(remote_at, 0u);
  EXPECT_GT(ack_at, remote_at);  // ack needs the return wire
}

TEST_F(EdgeFixture, RawSendDeliversClosure) {
  int delivered = 0;
  group.at(0).raw_send(0, 3, 24, [&](sim::Time t) {
    EXPECT_GT(t, 0u);
    ++delivered;
  });
  fabric.engine().run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(EdgeFixture, AtomicsToDistinctWordsDontInterfere) {
  for (int i = 0; i < 8; ++i) {
    group.at(i % 4).fetch_add(0, 2, static_cast<sim::Lva>(i) * 8,
                              static_cast<std::uint64_t>(i + 1),
                              [](sim::Time, std::uint64_t) {});
  }
  fabric.engine().run();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fabric.mem(2).load<std::uint64_t>(static_cast<sim::Lva>(i) * 8),
              static_cast<std::uint64_t>(i + 1));
  }
}

// A get and a fetch_add hold a slot of the source's completion ledger
// until their last hop; a completed slot is free, and reaching it again
// is a double completion that aborts naming the ledger.
TEST_F(EdgeFixture, CompletionLedgerFreesEachSlotOnce) {
  int completions = 0;
  group.at(0).fetch_add(0, 2, 8, 1, [&](sim::Time, std::uint64_t) { ++completions; });
  group.at(0).get(0, 3, 0, 16, [&](sim::Time, std::vector<std::byte>) { ++completions; });
  EXPECT_EQ(group.at(0).ledger().size(), 2u);
  fabric.engine().run();
  EXPECT_EQ(completions, 2);
  EXPECT_TRUE(group.at(0).ledger().empty());
  EXPECT_DEATH((void)group.at(0).ledger()[0],
               "double completion: endpoint completion ledger slot 0 is not "
               "in flight");
}

TEST_F(EdgeFixture, ParcelWithoutHandlerAborts) {
  sim::Fabric f(machine(2));
  EndpointGroup g(f, NetConfig{});
  util::Buffer b;
  b.put<int>(1);
  g.at(0).send_parcel(0, 1, std::move(b));
  EXPECT_DEATH(f.engine().run(), "no handler");
}

TEST_F(EdgeFixture, GetOfMaxBlockSize) {
  const std::size_t big = 1u << 20;
  std::vector<std::byte> pattern(big);
  for (std::size_t i = 0; i < big; i += 4096) {
    pattern[i] = static_cast<std::byte>(i >> 12);
  }
  fabric.mem(1).write(0, pattern);
  bool ok = false;
  group.at(0).get(0, 1, 0, big, [&](sim::Time, std::vector<std::byte> data) {
    ok = data == pattern;
  });
  fabric.engine().run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace nvgas::net
