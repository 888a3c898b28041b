// Pins the exact wire and CPU footprint of one op of each kind, under each
// address-space manager: message count, wire bytes, CPU tasks per node and
// completion time. The values were taken from the trace of a known-good
// build; any change to how a hop is billed (header sizes, o_recv charges,
// NIC command-processor costs, ack sizes) moves at least one of them.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <ostream>
#include <string>

#include "core/nvgas.hpp"

namespace nvgas {
namespace {

constexpr int kNodes = 4;
constexpr int kHome = 2;  // home of the remote block; node 0 issues every op

enum class Case : std::uint8_t {
  kMemput,
  kMemputSignal,
  kMemget,
  kFetchAdd,
  kResolveMiss,
  kMigrate,
  kStaleMemget,
  kRepairedMemget,
  kEagerParcel,
  kRendezvousParcel,
};

const char* case_name(Case c) {
  switch (c) {
    case Case::kMemput: return "memput";
    case Case::kMemputSignal: return "memput_signal";
    case Case::kMemget: return "memget";
    case Case::kFetchAdd: return "fetch_add";
    case Case::kResolveMiss: return "resolve_miss";
    case Case::kMigrate: return "migrate";
    case Case::kStaleMemget: return "stale_memget";
    case Case::kRepairedMemget: return "repaired_memget";
    case Case::kEagerParcel: return "eager_parcel";
    case Case::kRendezvousParcel: return "rendezvous_parcel";
  }
  return "?";
}

struct Footprint {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::array<std::size_t, kNodes> cpu_tasks{};
  sim::Time cpu_ns = 0;  // CPU time charged by those tasks, all nodes
  sim::Time done = 0;    // completion time, relative to issue

  bool operator==(const Footprint&) const = default;
};

std::string render(const Footprint& f) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{%llu, %llu, {%zu, %zu, %zu, %zu}, %llu, %llu}",
                static_cast<unsigned long long>(f.msgs),
                static_cast<unsigned long long>(f.bytes), f.cpu_tasks[0],
                f.cpu_tasks[1], f.cpu_tasks[2], f.cpu_tasks[3],
                static_cast<unsigned long long>(f.cpu_ns),
                static_cast<unsigned long long>(f.done));
  return buf;
}

void PrintTo(const Footprint& f, std::ostream* os) { *os << render(f); }

// Runs the setup to quiescence, then traces exactly one op of `c`.
Footprint measure(GasMode mode, Case c) {
  World world(Config::with_nodes(kNodes, mode));
  Gva block;
  rt::Event signalled;
  rt::LcoRef signal_ref;
  const auto sink = world.runtime().actions().add(
      "guard.sink", [](Context&, int, util::Buffer) {});

  world.spawn(0, [&](Context& ctx) -> Fiber {
    block = alloc_cyclic(ctx, kNodes, 256);
    while (block.home(kNodes) != kHome) block = block.advanced(256, 256);
    if (c == Case::kMigrate) {
      // A sharer, so agas-sw's migration has to invalidate someone.
      ctx.spawn(1, [&](Context& c1) -> Fiber {
        (void)co_await memget_value<std::uint64_t>(c1, block);
      });
    }
    if (c == Case::kStaleMemget || c == Case::kRepairedMemget) {
      // Node 0 learns the block at a non-home owner (3), then the block
      // moves on (to 1): node 0's translation is stale, and under
      // agas-net it points at a previous owner that holds a hint.
      co_await migrate(ctx, block, 3);
      (void)co_await memget_value<std::uint64_t>(ctx, block);
      co_await migrate(ctx, block, 1);
      if (c == Case::kRepairedMemget) {
        (void)co_await memget_value<std::uint64_t>(ctx, block);
      }
    }
    if (c == Case::kMemputSignal) {
      ctx.spawn(kHome, [&](Context& ch) -> Fiber {
        signal_ref = ch.make_ref(signalled);
        co_await signalled;
      });
    }
    co_return;
  });
  world.run();

  auto& trace = world.fabric().trace();
  trace.enable();
  const sim::Counters before = world.counters_total();
  const sim::Time t0 = world.now();
  sim::Time t1 = 0;

  switch (c) {
    case Case::kEagerParcel:
    case Case::kRendezvousParcel: {
      const std::size_t args = c == Case::kEagerParcel ? 64 : 8192;
      util::Buffer payload;
      payload.put<rt::ActionId>(sink);
      payload.append_raw(std::vector<std::byte>(args, std::byte{7}));
      world.endpoints().at(0).send_parcel(t0, 1, std::move(payload),
                                          [&t1](sim::Time t) { t1 = t; });
      break;
    }
    default:
      world.spawn(0, [&](Context& ctx) -> Fiber {
        switch (c) {
          case Case::kMemput:
            co_await memput_value<std::uint64_t>(ctx, block, 5);
            break;
          case Case::kMemputSignal:
            co_await memput_signal(ctx, block, detail::value_bytes(std::uint64_t{6}),
                                   signal_ref);
            break;
          case Case::kMemget:
          case Case::kStaleMemget:
          case Case::kRepairedMemget:
            (void)co_await memget_value<std::uint64_t>(ctx, block);
            break;
          case Case::kFetchAdd:
            (void)co_await fetch_add(ctx, block, 3);
            break;
          case Case::kResolveMiss:
            EXPECT_EQ(co_await resolve(ctx, block), kHome);
            break;
          case Case::kMigrate:
            co_await migrate(ctx, block, 3);
            break;
          default:
            break;
        }
        t1 = ctx.now();
      });
      break;
  }
  world.run();

  Footprint f;
  for (const auto& r : trace.of(sim::TraceEvent::kMsgSend)) {
    ++f.msgs;
    f.bytes += r.bytes;
  }
  for (const auto& r : trace.of(sim::TraceEvent::kCpuTask)) {
    ++f.cpu_tasks[static_cast<std::size_t>(r.node)];
    f.cpu_ns += r.bytes;
  }
  f.done = t1 - t0;
  // The trace and the counters must agree on the wire traffic.
  EXPECT_EQ(world.counters().messages_sent - before.messages_sent, f.msgs);
  EXPECT_EQ(world.counters().bytes_sent - before.bytes_sent, f.bytes);
  return f;
}

struct Row {
  GasMode mode;
  Case c;
  Footprint expected;
};

// Footprint: {msgs, wire bytes, {CPU tasks on nodes 0..3}, CPU ns, done ns}.
// pgas cannot migrate, so it has no migrate row. stale_memget is the first
// memget after the block moved on from a non-home owner that node 0 had
// learned: agas-sw re-resolves through the home directory (one home CPU
// task); agas-net takes one hint forward at the previous owner (3
// messages; via the home it would be 4) and no CPU task anywhere but
// node 0. repaired_memget is the next memget, direct thanks to the
// piggybacked translation.
const Row kRows[] = {
    {GasMode::kPgas, Case::kMemput, {2, 56, {2, 0, 0, 0}, 305, 2380}},
    {GasMode::kPgas, Case::kMemputSignal, {2, 56, {2, 0, 1, 0}, 385, 2380}},
    {GasMode::kPgas, Case::kMemget, {2, 72, {2, 0, 0, 0}, 305, 2485}},
    {GasMode::kPgas, Case::kFetchAdd, {2, 80, {2, 0, 0, 0}, 305, 2435}},
    {GasMode::kPgas, Case::kResolveMiss, {0, 0, {1, 0, 0, 0}, 105, 105}},
    {GasMode::kPgas, Case::kEagerParcel, {2, 132, {0, 1, 0, 0}, 400, 1992}},
    {GasMode::kPgas, Case::kRendezvousParcel, {3, 8300, {0, 2, 0, 0}, 770, 2961}},
    {GasMode::kAgasSw, Case::kMemput, {4, 136, {3, 0, 1, 0}, 1285, 5340}},
    {GasMode::kAgasSw, Case::kMemputSignal, {4, 136, {3, 0, 2, 0}, 1365, 5340}},
    {GasMode::kAgasSw, Case::kMemget, {4, 152, {3, 0, 1, 0}, 1285, 5445}},
    {GasMode::kAgasSw, Case::kFetchAdd, {4, 160, {3, 0, 1, 0}, 1285, 5395}},
    {GasMode::kAgasSw, Case::kResolveMiss, {2, 80, {3, 0, 1, 0}, 1165, 3145}},
    {GasMode::kAgasSw, Case::kMigrate, {10, 576, {2, 1, 5, 1}, 3706, 11962}},
    {GasMode::kAgasSw, Case::kStaleMemget, {4, 152, {3, 0, 1, 0}, 1285, 5445}},
    {GasMode::kAgasSw, Case::kEagerParcel, {2, 132, {0, 1, 0, 0}, 400, 1992}},
    {GasMode::kAgasSw, Case::kRendezvousParcel, {3, 8300, {0, 2, 0, 0}, 770, 2961}},
    {GasMode::kAgasNet, Case::kMemput, {2, 88, {2, 0, 0, 0}, 300, 2563}},
    {GasMode::kAgasNet, Case::kMemputSignal, {2, 88, {2, 0, 1, 0}, 380, 2563}},
    {GasMode::kAgasNet, Case::kMemget, {2, 88, {2, 0, 0, 0}, 300, 2664}},
    {GasMode::kAgasNet, Case::kFetchAdd, {2, 88, {2, 0, 0, 0}, 300, 2612}},
    {GasMode::kAgasNet, Case::kResolveMiss, {2, 72, {2, 0, 0, 0}, 360, 2458}},
    {GasMode::kAgasNet, Case::kMigrate, {7, 488, {2, 0, 0, 1}, 790, 7299}},
    {GasMode::kAgasNet, Case::kStaleMemget, {3, 128, {2, 0, 0, 0}, 300, 3794}},
    {GasMode::kAgasNet, Case::kRepairedMemget, {2, 88, {2, 0, 0, 0}, 300, 2664}},
    {GasMode::kAgasNet, Case::kEagerParcel, {2, 132, {0, 1, 0, 0}, 400, 1992}},
    {GasMode::kAgasNet, Case::kRendezvousParcel, {3, 8300, {0, 2, 0, 0}, 770, 2961}},
};

TEST(HopGuard, EveryOpKeepsItsWireAndCpuFootprint) {
  for (const Row& row : kRows) {
    SCOPED_TRACE(std::string(to_string(row.mode)) + " " + case_name(row.c));
    const Footprint got = measure(row.mode, row.c);
    EXPECT_EQ(got, row.expected);
  }
}

}  // namespace
}  // namespace nvgas
