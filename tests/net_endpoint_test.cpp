#include "net/endpoint.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/fabric.hpp"

namespace nvgas::net {
namespace {

sim::MachineParams machine(int nodes = 4) {
  sim::MachineParams p;
  p.nodes = nodes;
  p.workers_per_node = 1;
  p.mem_bytes_per_node = 1 << 20;
  return p;
}

struct EndpointFixture : ::testing::Test {
  EndpointFixture() : fabric(machine()), group(fabric, NetConfig{}) {}
  sim::Fabric fabric;
  EndpointGroup group;
};

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST_F(EndpointFixture, PutWritesRemoteMemory) {
  bool done = false;
  sim::Time done_at = 0;
  group.at(0).put(0, 2, 128, bytes_of("payload!"), [&](sim::Time t) {
    done = true;
    done_at = t;
  });
  fabric.engine().run();
  ASSERT_TRUE(done);
  EXPECT_GT(done_at, 2 * sim::kWireLatencyNs);  // round trip
  char out[9] = {};
  fabric.mem(2).read(128, std::as_writable_bytes(std::span(out, 8)));
  EXPECT_STREQ(out, "payload!");
  EXPECT_EQ(fabric.counters().rma_puts, 1u);
}

TEST_F(EndpointFixture, PutDoesNotTouchTargetCpu) {
  group.at(0).put(0, 2, 0, std::vector<std::byte>(256), [](sim::Time) {});
  fabric.engine().run();
  EXPECT_EQ(fabric.cpu(2).tasks_run(), 0u);
  EXPECT_EQ(fabric.counters().cpu_tasks, 0u);
}

TEST_F(EndpointFixture, GetReadsRemoteMemory) {
  const std::uint64_t magic = 0xfeedfacecafebeefULL;
  fabric.mem(3).store<std::uint64_t>(64, magic);
  std::uint64_t got = 0;
  group.at(1).get(0, 3, 64, 8, [&](sim::Time, std::vector<std::byte> data) {
    ASSERT_EQ(data.size(), 8u);
    std::memcpy(&got, data.data(), 8);
  });
  fabric.engine().run();
  EXPECT_EQ(got, magic);
  EXPECT_EQ(fabric.counters().rma_gets, 1u);
  EXPECT_EQ(fabric.cpu(3).tasks_run(), 0u);  // one-sided
}

TEST_F(EndpointFixture, GetObservesValueAtReadTimeNotPostTime) {
  // A put that lands before the get's request arrives must be visible.
  fabric.mem(2).store<std::uint64_t>(0, 1);
  group.at(0).put(0, 2, 0, bytes_of("XXXXXXXX"), nullptr);
  std::vector<std::byte> got;
  // Issue the get well after the put is in flight.
  group.at(1).get(5000, 2, 0, 8,
                  [&](sim::Time, std::vector<std::byte> data) { got = std::move(data); });
  fabric.engine().run();
  ASSERT_EQ(got.size(), 8u);
  EXPECT_EQ(std::memcmp(got.data(), "XXXXXXXX", 8), 0);
}

TEST_F(EndpointFixture, FetchAddReturnsOldAndApplies) {
  fabric.mem(2).store<std::uint64_t>(8, 100);
  std::uint64_t old = 0;
  group.at(0).fetch_add(0, 2, 8, 42, [&](sim::Time, std::uint64_t v) { old = v; });
  fabric.engine().run();
  EXPECT_EQ(old, 100u);
  EXPECT_EQ(fabric.mem(2).load<std::uint64_t>(8), 142u);
  EXPECT_EQ(fabric.counters().rma_atomics, 1u);
}

TEST_F(EndpointFixture, ConcurrentFetchAddsAreSerialized) {
  // All four nodes increment the same word; the NIC atomic unit at the
  // target serializes them, so the final value is exact and the set of
  // returned old values is a permutation of {0,1,2,3}.
  std::vector<std::uint64_t> olds;
  for (int n = 0; n < 4; ++n) {
    group.at(n).fetch_add(0, 2, 16, 1,
                          [&](sim::Time, std::uint64_t v) { olds.push_back(v); });
  }
  fabric.engine().run();
  EXPECT_EQ(fabric.mem(2).load<std::uint64_t>(16), 4u);
  std::sort(olds.begin(), olds.end());
  EXPECT_EQ(olds, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST_F(EndpointFixture, EagerParcelReachesHandlerOnCpu) {
  util::Buffer payload;
  payload.put<std::uint64_t>(777);
  int handled_src = -1;
  std::uint64_t handled_value = 0;
  group.at(3).set_parcel_handler(
      [&](sim::TaskCtx&, int src, util::Buffer p) {
        handled_src = src;
        handled_value = p.reader().get<std::uint64_t>();
      });
  group.at(1).send_parcel(0, 3, std::move(payload));
  fabric.engine().run();
  EXPECT_EQ(handled_src, 1);
  EXPECT_EQ(handled_value, 777u);
  EXPECT_EQ(fabric.counters().parcels_eager, 1u);
  EXPECT_GE(fabric.cpu(3).tasks_run(), 1u);  // two-sided costs a CPU task
}

TEST_F(EndpointFixture, LargeParcelTakesRendezvous) {
  util::Buffer payload;
  std::vector<std::uint8_t> big(100 * 1024, 0x5a);
  payload.put_vector(big);
  std::size_t got = 0;
  group.at(2).set_parcel_handler(
      [&](sim::TaskCtx&, int, util::Buffer p) {
        got = p.reader().get_vector<std::uint8_t>().size();
      });
  bool src_released = false;
  group.at(0).send_parcel(0, 2, std::move(payload),
                          [&](sim::Time) { src_released = true; });
  fabric.engine().run();
  EXPECT_EQ(got, big.size());
  EXPECT_TRUE(src_released);
  EXPECT_EQ(fabric.counters().parcels_rendezvous, 1u);
  EXPECT_EQ(fabric.counters().parcels_eager, 0u);
}

TEST_F(EndpointFixture, RendezvousSlowerThanEagerForSamePayload) {
  // Same payload size just above vs just below the threshold: rendezvous
  // pays extra crossings.
  auto one_way = [&](std::size_t bytes, std::size_t threshold) {
    sim::Fabric f(machine());
    NetConfig cfg;
    cfg.eager_threshold = threshold;
    EndpointGroup g(f, cfg);
    sim::Time arrived = 0;
    g.at(1).set_parcel_handler(
        [&](sim::TaskCtx& ctx, int, util::Buffer) { arrived = ctx.start(); });
    util::Buffer payload;
    payload.append_raw(std::vector<std::byte>(bytes));
    g.at(0).send_parcel(0, 1, std::move(payload));
    f.engine().run();
    return arrived;
  };
  const auto eager = one_way(8192, 16384);
  const auto rendezvous = one_way(8192, 4096);
  EXPECT_GT(rendezvous, eager + 2 * sim::kWireLatencyNs);
}

TEST_F(EndpointFixture, ParcelOrderPreservedBetweenPair) {
  std::vector<int> seen;
  group.at(1).set_parcel_handler(
      [&](sim::TaskCtx&, int, util::Buffer p) {
        seen.push_back(p.reader().get<int>());
      });
  for (int i = 0; i < 8; ++i) {
    util::Buffer b;
    b.put<int>(i);
    group.at(0).send_parcel(0, 1, std::move(b));
  }
  fabric.engine().run();
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST_F(EndpointFixture, SelfSendWorks) {
  int handled = 0;
  group.at(0).set_parcel_handler(
      [&](sim::TaskCtx&, int src, util::Buffer) {
        EXPECT_EQ(src, 0);
        ++handled;
      });
  util::Buffer b;
  b.put<int>(1);
  group.at(0).send_parcel(0, 0, std::move(b));
  fabric.engine().run();
  EXPECT_EQ(handled, 1);
}

TEST_F(EndpointFixture, ManyPutsAllLand) {
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    std::vector<std::byte> data(8);
    const std::uint64_t v = static_cast<std::uint64_t>(i) * 3 + 1;
    std::memcpy(data.data(), &v, 8);
    group.at(0).put(0, 1, static_cast<sim::Lva>(i) * 8, std::move(data),
                    [&](sim::Time) { ++done; });
  }
  fabric.engine().run();
  EXPECT_EQ(done, 64);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(fabric.mem(1).load<std::uint64_t>(static_cast<sim::Lva>(i) * 8),
              static_cast<std::uint64_t>(i) * 3 + 1);
  }
}

}  // namespace
}  // namespace nvgas::net
