// Heap-allocation budget of the parcel path.
//
// Its own executable: it replaces the global operator new/delete with
// counting versions, and counts every allocation made while a small
// agas-net kvstore on a lossy wire serves a fixed batch of requests.
// Each request is a spawned client fiber, an apply() parcel through the
// nvgas.apply trampoline, a server fiber with its memget/memput, and a
// reply parcel, all over the reliability channel. The allocations per
// request must stay within the budget measured when the parcel path
// stopped copying its payload at each hop; a change that brings back a
// per-hop copy or a per-frame node fails here instead of going unnoticed
// in a wall-time benchmark.
#include <gtest/gtest.h>

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
// and the CPU run queue as rings and spawn slots recycled. Before those
// changes the same batch measured 28.64.
constexpr double kBudgetPerRequest = 10.0;

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

}  // namespace
}  // namespace nvgas
