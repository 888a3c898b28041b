// Heap-allocation budgets of the parcel path and the one-sided data path.
//
// Its own executable: it replaces the global operator new/delete with
// counting versions, and counts every allocation made while a fixed batch
// of work runs after a warm-up.
//
// The parcel path: a small agas-net kvstore on a lossy wire serves a
// batch of requests. Each request is a spawned client fiber, an apply()
// parcel through the nvgas.apply trampoline, a server fiber with its
// memget/memput, and a reply parcel, all over the reliability channel.
//
// The one-sided data path: every rank keeps a window of fetch_adds (and,
// under pgas, gets) in flight on random words of a cyclic table. Every op
// parks in the GAS op slab, and the endpoint's completion ledger holds
// only the `{this, id}` that finishes it. Under agas-sw a 4-entry
// translation cache makes most of them miss, so they wait there, often
// behind a resolve already in flight.
//
// The allocations per request or op must stay within the budget measured
// when each path stopped allocating per hop; a change that brings back a
// per-hop copy, a per-op node or a closure too large for its inline
// buffer fails here instead of going unnoticed in a wall-time benchmark.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "core/nvgas.hpp"
#include "kvstore/harness.hpp"
#include "kvstore/proto.hpp"
#include "kvstore/server.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define NVGAS_ALLOC_BUDGET_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NVGAS_ALLOC_BUDGET_ASAN 1
#endif
#endif

#ifndef NVGAS_ALLOC_BUDGET_ASAN
namespace {
std::uint64_t g_allocs = 0;
}  // namespace

// The array and nothrow forms forward to these; the aligned forms keep
// their own pair and are not counted (nothing on the parcel path
// over-aligns).
void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace nvgas {
namespace {

// Measured 9.89 per request (GCC 12, libstdc++) with the payload carried
// as one buffer, the eager-send closure inline, the reliability window
// and the CPU run queue as rings and spawn slots recycled, and 9.87 once
// agas-net's resolve misses parked in the op slab rather than carrying
// the caller's completion through both hops. Before those changes the
// same batch measured 28.64.
constexpr double kBudgetPerRequest = 9.9;

// Measured 0.064 per op (GCC 12, libstdc++) with agas-sw's ops parked in
// the op slab, whose id the fetch_add carries to the wire and back; what
// is left is one per window of 16, the waiting fiber's entry in the
// window's AndGate (0.063 per op over twice the windows). Before, every miss
// allocated a pending-resolve node, its vector and a std::function, an
// in-flight-count node, a wrapping std::function and two closures too
// large for their inline buffers: 6.01 per op.
constexpr double kBudgetPerSwOp = 0.1;
// Measured 0.564 per op with every op in the op slab and its id carried by
// the get or fetch_add verb: what is left is each get's payload vector (half the ops are
// gets) and the gate's entry per window. Before, each verb's completion rode in closures that
// spilled to the heap: 2.83 per op.
constexpr double kBudgetPerPgasOp = 0.6;

constexpr int kNodes = 4;
constexpr int kWarmupPerRank = 100;
constexpr int kRequestsPerRank = 500;
constexpr sim::Time kGapNs = 2'000;

struct Harness {
  World world;
  apps::kv::KvServer server;
  rt::ActionId reply = rt::kInvalidAction;
  std::uint64_t replies = 0;

  static Config config() {
    Config cfg = Config::with_nodes(kNodes, GasMode::kAgasNet);
    apps::kv::arm_lossy_plan(cfg);
    return cfg;
  }

  Harness() : world(config()), server(world, apps::kv::KvParams{}) {
    reply = world.runtime().actions().add(
        "test.kv_reply", [this](rt::Context&, int, util::Buffer raw) {
          (void)apps::kv::decode_response(raw);
          ++replies;
        });
    world.run_spmd([this](Context& ctx) -> Fiber {
      if (ctx.rank() == 0) server.setup(ctx);
      co_await world.coll().barrier(ctx);
    });
  }

  // Each rank issues `per_rank` requests, one every kGapNs: 80% GET, 10%
  // PUT, 10% DEL over 128 keys.
  void serve(int per_rank) {
    world.run_spmd([this, per_rank](Context& ctx) -> Fiber {
      for (int i = 0; i < per_rank; ++i) {
        co_await ctx.sleep(kGapNs);
        const std::uint64_t key_id =
            static_cast<std::uint64_t>(ctx.rank() * 7919 + i * 31) % 128;
        apps::kv::MsgHdr hdr;
        hdr.op = i % 10 == 8 ? apps::kv::OP_PUT
                 : i % 10 == 9 ? apps::kv::OP_DEL
                               : apps::kv::OP_GET;
        hdr.klen = sizeof key_id;
        std::vector<std::byte> value;
        if (hdr.op == apps::kv::OP_PUT) {
          value.assign(16, std::byte{0x5a});
          hdr.vlen = static_cast<std::uint32_t>(value.size());
        }
        apps::kv::ReqMeta meta;
        meta.token = static_cast<std::uint64_t>(i);
        meta.t_issue = ctx.now();
        meta.reply_action = reply;
        meta.reply_node = ctx.rank();
        std::array<std::byte, sizeof key_id> key{};
        std::memcpy(key.data(), &key_id, sizeof key_id);
        ctx.spawn(ctx.rank(), [this, hdr, meta, key,
                               value = std::move(value)](Context& c) -> Fiber {
          co_await server.submit(c, hdr, key, value, meta);
        });
      }
    });
  }
};

TEST(AllocBudget, KvRequestsOverLossyAgasNet) {
#ifdef NVGAS_ALLOC_BUDGET_ASAN
  GTEST_SKIP() << "AddressSanitizer owns operator new; nothing is counted";
#else
  Harness h;
  // Warm-up: the engine, CPU, reliability and op pools grow to their
  // working size, so the measured batch sees the steady state.
  h.serve(kWarmupPerRank);
  ASSERT_EQ(h.replies, std::uint64_t{kNodes * kWarmupPerRank});

  const std::uint64_t before = g_allocs;
  h.serve(kRequestsPerRank);
  const std::uint64_t allocs = g_allocs - before;
  constexpr int kRequests = kNodes * kRequestsPerRank;
  ASSERT_EQ(h.replies, std::uint64_t{kNodes * (kWarmupPerRank + kRequestsPerRank)});
  ASSERT_GT(h.world.counters().net_retransmits, 0u) << "the wire was not lossy";

  const double per_request =
      static_cast<double>(allocs) / static_cast<double>(kRequests);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  std::printf("%llu allocations for %d requests: %.2f per request\n",
              static_cast<unsigned long long>(allocs), kRequests, per_request);
  EXPECT_LE(per_request, kBudgetPerRequest);
#endif
}

// Each rank keeps kWindow ops in flight, `windows` times over, on random
// words of a cyclic table of kTableBlocks blocks; with `gets`, every
// other op is an 8-byte memget instead of a fetch_add.
constexpr int kWindow = 16;
constexpr std::uint32_t kTableBlocks = 64;
constexpr std::uint32_t kBlockBytes = 256;
constexpr std::uint64_t kWords = std::uint64_t{kTableBlocks} * kBlockBytes / 8;

struct Windowed {
  World world;
  Gva table;
  std::uint64_t ops = 0;

  explicit Windowed(const Config& cfg) : world(cfg) {
    world.run_spmd([this](Context& ctx) -> Fiber {
      if (ctx.rank() == 0) table = alloc_cyclic(ctx, kTableBlocks, kBlockBytes);
      co_await world.coll().barrier(ctx);
    });
  }

  void run(int windows, bool gets) {
    world.run_spmd([this, windows, gets](Context& ctx) -> Fiber {
      util::Rng rng(static_cast<std::uint64_t>(ctx.rank()) + 1);
      for (int w = 0; w < windows; ++w) {
        rt::AndGate gate(kWindow);
        rt::AndGate* g = &gate;
        sim::TaskCtx& task = detail::task_of(ctx);
        for (int i = 0; i < kWindow; ++i) {
          const Gva word = table.advanced(
              static_cast<std::int64_t>(rng.below(kWords)) * 8, kBlockBytes);
          if (gets && i % 2 == 1) {
            world.gas().memget(task, ctx.rank(), word, 8,
                               [g](sim::Time t, std::vector<std::byte>) { g->arrive(t); });
          } else {
            world.gas().fetch_add(task, ctx.rank(), word, 1,
                                  [g](sim::Time t, std::uint64_t) { g->arrive(t); });
          }
          ++ops;
        }
        co_await gate;
      }
    });
  }
};

#ifndef NVGAS_ALLOC_BUDGET_ASAN
struct Measured {
  double per_op = 0;
  double miss_ratio = 0;  // agas-sw translation cache, whole run
};

// Allocations per op of `windows` windows per rank, after a warm-up of
// as many.
Measured allocs_per_windowed_op(const Config& cfg, int windows, bool gets) {
  Windowed w(cfg);
  w.run(windows, gets);  // warm-up: pools, slabs, ledgers and caches grow
  const std::uint64_t ops_before = w.ops;
  const std::uint64_t before = g_allocs;
  w.run(windows, gets);
  const std::uint64_t allocs = g_allocs - before;
  const std::uint64_t ops = w.ops - ops_before;
  EXPECT_EQ(w.world.gas().audit_quiescent(), "");
  const auto& c = w.world.counters();
  Measured m;
  m.per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  m.miss_ratio = static_cast<double>(c.sw_cache_misses) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, c.sw_cache_misses + c.sw_cache_hits));
  ::testing::Test::RecordProperty("allocs_per_op", std::to_string(m.per_op));
  std::printf("%llu allocations for %llu ops: %.3f per op\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(ops), m.per_op);
  return m;
}
#endif

TEST(AllocBudget, MissingFetchAddsOverAgasSw) {
#ifdef NVGAS_ALLOC_BUDGET_ASAN
  GTEST_SKIP() << "AddressSanitizer owns operator new; nothing is counted";
#else
  Config cfg = Config::with_nodes(8, GasMode::kAgasSw);
  cfg.gas_costs.sw_cache_capacity = 4;
  const Measured m = allocs_per_windowed_op(cfg, 40, false);
  EXPECT_GT(m.miss_ratio, 0.8) << "the cache was not small enough to miss";
  EXPECT_LE(m.per_op, kBudgetPerSwOp);
#endif
}

TEST(AllocBudget, FetchAddsAndGetsOverPgas) {
#ifdef NVGAS_ALLOC_BUDGET_ASAN
  GTEST_SKIP() << "AddressSanitizer owns operator new; nothing is counted";
#else
  const Measured m =
      allocs_per_windowed_op(Config::with_nodes(4, GasMode::kPgas), 40, true);
  EXPECT_LE(m.per_op, kBudgetPerPgasOp);
#endif
}

}  // namespace
}  // namespace nvgas
