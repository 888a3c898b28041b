// End-to-end correctness of apps/kvstore: PUT/GET/DEL round trips, TTL
// expiry and cancellation, the OP_METRICS ledger, and determinism of the
// full client-generator workload — across all three address-space
// managers, since the server is mode-agnostic by construction.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/nvgas.hpp"
#include "kvstore/harness.hpp"

namespace nvgas::apps::kv {
namespace {

std::vector<std::byte> kbytes(std::uint64_t k) {
  std::vector<std::byte> out(sizeof k);
  std::memcpy(out.data(), &k, sizeof k);
  return out;
}

std::vector<std::byte> vbytes(std::size_t n, std::uint8_t tag) {
  return std::vector<std::byte>(n, static_cast<std::byte>(tag));
}

// One in-flight request the test fiber can await a response for.
struct Pending {
  Response resp;
  rt::Event done;
};

// Minimal synchronous-style client: issue with a fresh token, await the
// reply Event, inspect the decoded Response.
struct TestClient {
  explicit TestClient(World& w) : world(&w) {
    reply_action = w.runtime().actions().add(
        "test.kv.reply", [this](Context& c, int, util::Buffer raw) {
          const Response rp = decode_response(raw);
          auto it = pending.find(rp.hdr.token);
          NVGAS_CHECK(it != pending.end());
          it->second->resp = rp;
          it->second->done.set(c.now());
        });
  }

  ReqMeta meta_for(Context& c, Pending& p) {
    ReqMeta m;
    m.token = next_token++;
    m.t_issue = c.now();
    m.reply_action = reply_action;
    m.reply_node = c.rank();
    pending[m.token] = &p;
    return m;
  }

  World* world;
  rt::ActionId reply_action = rt::kInvalidAction;
  std::map<std::uint64_t, Pending*> pending;
  std::uint64_t next_token = 1;
};

struct ModeParam {
  ModeParam(GasMode m, int n) : mode(m), nodes(n) {}
  GasMode mode;
  // gtest prints a parameter that has no operator<< as a byte dump, and
  // gtest_discover_tests copies that dump into the ctest name. Explicit
  // zeroed padding keeps the name identical from build to build.
  std::uint8_t pad[3] = {};
  int nodes;
};
static_assert(std::has_unique_object_representations_v<ModeParam>);

std::string param_name(const ::testing::TestParamInfo<ModeParam>& info) {
  const char* mode = info.param.mode == GasMode::kPgas     ? "pgas"
                     : info.param.mode == GasMode::kAgasSw ? "agassw"
                                                           : "agasnet";
  return std::string(mode) + "_" + std::to_string(info.param.nodes) + "n";
}

class KvStoreTest : public ::testing::TestWithParam<ModeParam> {
 protected:
  Config make_config() const {
    return Config::with_nodes(GetParam().nodes, GetParam().mode);
  }
};

TEST_P(KvStoreTest, PutGetDelRoundTrip) {
  World world(make_config());
  KvParams kp;
  kp.buckets = 16;
  KvServer server(world, kp);
  TestClient cli(world);
  bool checked = false;
  world.spawn(0, [&](Context& ctx) -> Fiber {
    server.setup(ctx);

    MsgHdr put;
    put.op = OP_PUT;
    put.klen = 8;
    put.vlen = 16;
    const auto key = kbytes(42);
    const auto val = vbytes(16, 0xa5);
    Pending p1;
    co_await server.submit(ctx, put, key, val, cli.meta_for(ctx, p1));
    co_await p1.done;
    EXPECT_EQ(p1.resp.hdr.code, kOk);
    EXPECT_EQ(p1.resp.hdr.op, OP_PUT);

    MsgHdr get;
    get.op = OP_GET;
    get.klen = 8;
    Pending p2;
    co_await server.submit(ctx, get, key, {}, cli.meta_for(ctx, p2));
    co_await p2.done;
    EXPECT_EQ(p2.resp.hdr.code, kOk);
    EXPECT_EQ(p2.resp.value.size(), 16u);
    EXPECT_EQ(p2.resp.value, val);

    MsgHdr del;
    del.op = OP_DEL;
    del.klen = 8;
    Pending p3;
    co_await server.submit(ctx, del, key, {}, cli.meta_for(ctx, p3));
    co_await p3.done;
    EXPECT_EQ(p3.resp.hdr.code, kOk);

    Pending p4;
    co_await server.submit(ctx, get, key, {}, cli.meta_for(ctx, p4));
    co_await p4.done;
    EXPECT_EQ(p4.resp.hdr.code, kNotFound);

    // Second DEL of the same key misses: the exactly-once ledger counts
    // it as a miss, not a second apply.
    Pending p5;
    co_await server.submit(ctx, del, key, {}, cli.meta_for(ctx, p5));
    co_await p5.done;
    EXPECT_EQ(p5.resp.hdr.code, kNotFound);
    checked = true;
  });
  world.run();
  EXPECT_TRUE(checked);
  const Metrics m = server.total_metrics();
  EXPECT_EQ(m.puts, 1u);
  EXPECT_EQ(m.gets_hit, 1u);
  EXPECT_EQ(m.gets_miss, 1u);
  EXPECT_EQ(m.dels_applied, 1u);
  EXPECT_EQ(m.dels_missed, 1u);
}

TEST_P(KvStoreTest, OverwriteBumpsVersionAndReturnsLatest) {
  World world(make_config());
  KvServer server(world, KvParams{});
  TestClient cli(world);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    server.setup(ctx);
    const auto key = kbytes(7);
    MsgHdr put;
    put.op = OP_PUT;
    put.klen = 8;
    put.vlen = 8;
    for (std::uint8_t tag = 1; tag <= 3; ++tag) {
      Pending p;
      co_await server.submit(ctx, put, key, vbytes(8, tag),
                             cli.meta_for(ctx, p));
      co_await p.done;
      EXPECT_EQ(p.resp.hdr.code, kOk);
    }
    MsgHdr get;
    get.op = OP_GET;
    get.klen = 8;
    Pending p;
    co_await server.submit(ctx, get, key, {}, cli.meta_for(ctx, p));
    co_await p.done;
    EXPECT_EQ(p.resp.hdr.code, kOk);
    EXPECT_EQ(p.resp.value, vbytes(8, 3));
  });
  world.run();
  EXPECT_EQ(server.total_metrics().puts, 3u);
}

TEST_P(KvStoreTest, TtlExpiryRemovesEntry) {
  World world(make_config());
  KvServer server(world, KvParams{});
  TestClient cli(world);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    server.setup(ctx);
    const auto key = kbytes(99);
    MsgHdr put;
    put.op = OP_PUT;
    put.klen = 8;
    put.vlen = 4;
    put.ttl_us = 100;  // expires at ~now + 100us
    Pending p1;
    co_await server.submit(ctx, put, key, vbytes(4, 0x11),
                           cli.meta_for(ctx, p1));
    co_await p1.done;
    EXPECT_EQ(p1.resp.hdr.code, kOk);

    // Well before expiry the entry is live.
    co_await ctx.sleep(20'000);
    MsgHdr get;
    get.op = OP_GET;
    get.klen = 8;
    Pending p2;
    co_await server.submit(ctx, get, key, {}, cli.meta_for(ctx, p2));
    co_await p2.done;
    EXPECT_EQ(p2.resp.hdr.code, kOk);

    // Well after expiry it is gone.
    co_await ctx.sleep(400'000);
    Pending p3;
    co_await server.submit(ctx, get, key, {}, cli.meta_for(ctx, p3));
    co_await p3.done;
    EXPECT_EQ(p3.resp.hdr.code, kNotFound);
  });
  world.run();
  const Metrics m = server.total_metrics();
  EXPECT_EQ(m.ttl_armed, 1u);
  EXPECT_EQ(m.expirations, 1u);
  EXPECT_EQ(m.ttl_cancelled, 0u);
  // The expiry DEL is internal: it must not count as a client DEL.
  EXPECT_EQ(m.dels_applied, 0u);
}

TEST_P(KvStoreTest, OverwriteWithoutTtlCancelsTimer) {
  World world(make_config());
  KvServer server(world, KvParams{});
  TestClient cli(world);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    server.setup(ctx);
    const auto key = kbytes(5);
    MsgHdr put;
    put.op = OP_PUT;
    put.klen = 8;
    put.vlen = 4;
    put.ttl_us = 100;
    Pending p1;
    co_await server.submit(ctx, put, key, vbytes(4, 0x22),
                           cli.meta_for(ctx, p1));
    co_await p1.done;

    // Overwrite with no TTL: the pending expiry must be cancelled and
    // the new value must survive past the old deadline.
    put.ttl_us = 0;
    Pending p2;
    co_await server.submit(ctx, put, key, vbytes(4, 0x33),
                           cli.meta_for(ctx, p2));
    co_await p2.done;

    co_await ctx.sleep(500'000);
    MsgHdr get;
    get.op = OP_GET;
    get.klen = 8;
    Pending p3;
    co_await server.submit(ctx, get, key, {}, cli.meta_for(ctx, p3));
    co_await p3.done;
    EXPECT_EQ(p3.resp.hdr.code, kOk);
    EXPECT_EQ(p3.resp.value, vbytes(4, 0x33));
  });
  world.run();
  const Metrics m = server.total_metrics();
  EXPECT_EQ(m.ttl_armed, 1u);
  EXPECT_EQ(m.ttl_cancelled, 1u);
  EXPECT_EQ(m.expirations, 0u);
}

TEST_P(KvStoreTest, BucketFullReportsNoSpace) {
  World world(make_config());
  KvParams kp;
  kp.buckets = 1;  // every key collides into one bucket
  kp.slots_per_bucket = 2;
  KvServer server(world, kp);
  TestClient cli(world);
  world.spawn(0, [&](Context& ctx) -> Fiber {
    server.setup(ctx);
    MsgHdr put;
    put.op = OP_PUT;
    put.klen = 8;
    put.vlen = 4;
    int ok = 0;
    int no_space = 0;
    for (std::uint64_t k = 0; k < 3; ++k) {
      Pending p;
      co_await server.submit(ctx, put, kbytes(k), vbytes(4, 1),
                             cli.meta_for(ctx, p));
      co_await p.done;
      (p.resp.hdr.code == kOk ? ok : no_space)++;
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(no_space, 1);
  });
  world.run();
  EXPECT_EQ(server.total_metrics().no_space, 1u);
}

TEST_P(KvStoreTest, MetricsOverTheWireMatchHostSide) {
  World world(make_config());
  KvServer server(world, KvParams{});
  TestClient cli(world);
  Metrics wire{};
  const int P = world.ranks();
  world.spawn(0, [&](Context& ctx) -> Fiber {
    server.setup(ctx);
    MsgHdr put;
    put.op = OP_PUT;
    put.klen = 8;
    put.vlen = 4;
    for (std::uint64_t k = 0; k < 8; ++k) {
      Pending p;
      co_await server.submit(ctx, put, kbytes(k), vbytes(4, 2),
                             cli.meta_for(ctx, p));
      co_await p.done;
    }
    // Ask every node for its ledger over the wire.
    for (int n = 0; n < P; ++n) {
      Pending p;
      server.submit_metrics(ctx, n, cli.meta_for(ctx, p));
      co_await p.done;
      EXPECT_EQ(p.resp.value.size(), sizeof(Metrics));
      Metrics m;
      std::memcpy(&m, p.resp.value.data(), sizeof m);
      wire += m;
    }
  });
  world.run();
  EXPECT_EQ(wire.puts, 8u);
  EXPECT_EQ(wire.puts, server.total_metrics().puts);
}

INSTANTIATE_TEST_SUITE_P(Modes, KvStoreTest,
                         ::testing::Values(ModeParam{GasMode::kPgas, 4},
                                           ModeParam{GasMode::kAgasSw, 4},
                                           ModeParam{GasMode::kAgasNet, 4}),
                         param_name);

// --- full-workload determinism ---------------------------------------

KvRunConfig small_run(GasMode mode) {
  KvRunConfig rc;
  rc.mode = mode;
  rc.nodes = 4;
  rc.policy = lb::PolicyKind::kHysteresis;
  rc.kv.buckets = 32;
  rc.client.keyspace = 512;
  rc.client.rate_per_node = 4.0e5;
  rc.client.t_start = 30'000;
  rc.client.duration = 400'000;
  rc.client.t_shift = 230'000;
  return rc;
}

TEST(KvWorkloadTest, RepeatRunsAreHashIdentical) {
  const KvRunResult a = run_kv(small_run(GasMode::kAgasNet));
  const KvRunResult b = run_kv(small_run(GasMode::kAgasNet));
  EXPECT_GT(a.issued, 100u);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.torn, 0u);
  EXPECT_EQ(b.torn, 0u);
}

TEST(KvWorkloadTest, EveryIssuedRequestIsAnsweredExactlyOnce) {
  const KvRunResult r = run_kv(small_run(GasMode::kAgasSw));
  EXPECT_GT(r.issued, 100u);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.torn, 0u);
  // SLO report sanity: quantiles are ordered and goodput is positive.
  EXPECT_GT(r.slo.goodput_ops_per_sec, 0.0);
  EXPECT_LE(r.slo.get.p50, r.slo.get.p99);
  EXPECT_LE(r.slo.get.p99, r.slo.get.p999);
}

TEST(KvWorkloadTest, LossyWireStillAnswersEverything) {
  KvRunConfig rc = small_run(GasMode::kAgasNet);
  rc.lossy = true;
  const KvRunResult r = run_kv(rc);
  EXPECT_GT(r.issued, 100u);
  EXPECT_EQ(r.completed, r.issued);
  EXPECT_EQ(r.torn, 0u);
}

// --- generator lateness ---------------------------------------------------

// ClientGen stamps each request with its scheduled arrival, not with the
// time its node's CPU got round to issuing it. Both workers of node 0 are
// held busy from before the first arrival until kBusyUntil, so every
// request of the window [kArrivalStart, kArrivalEnd) is issued late, and
// its recorded latency must include that wait: at least
// kBusyUntil - kArrivalEnd for each one, far above the few microseconds
// a request takes once issued.
TEST(KvClientGenTest, LatencyCountsFromTheDueTime) {
  constexpr sim::Time kArrivalStart = 200'000;
  constexpr sim::Time kArrivalEnd = 210'000;
  constexpr sim::Time kBusyUntil = 310'000;

  Config cfg = Config::with_nodes(2, GasMode::kAgasNet);
  World world(cfg);
  KvServer server(world, KvParams{});
  ClientConfig cc;
  cc.t_start = kArrivalStart;
  cc.duration = kArrivalEnd - kArrivalStart;
  ClientGen gen(world, server, cc, /*slo_target_ns=*/150'000);

  sim::Time ready_at = 0;
  world.run_spmd([&](Context& ctx) -> Fiber {
    if (ctx.rank() == 0) server.setup(ctx);
    co_await world.coll().barrier(ctx);
    if (ctx.rank() != 0) co_return;
    ready_at = ctx.now();
    for (int w = 0; w < cfg.machine.workers_per_node; ++w) {
      world.fabric().cpu(0).submit_at(
          kArrivalStart - 1,
          [busy = kBusyUntil - kArrivalStart + 1](sim::TaskCtx& t) {
            t.charge(busy);
          });
    }
    (void)gen.drive(ctx);
  });

  ASSERT_LT(ready_at, kArrivalStart);
  EXPECT_GT(gen.issued(), 5u);
  EXPECT_EQ(gen.completed(), gen.issued());
  // percentile(0) is the smallest recorded latency (rounded up to its
  // histogram bucket).
  const SloTracker slo = gen.merged_slo();
  const LatencyHistogram& get = slo.hist(OP_GET);
  ASSERT_GT(get.total(), 0u);
  EXPECT_GE(get.percentile(0.0), kBusyUntil - kArrivalEnd);
}

}  // namespace
}  // namespace nvgas::apps::kv
