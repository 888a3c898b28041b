#include "core/mcheck.hpp"

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "util/format.hpp"

namespace nvgas::core {
namespace {

using gas::Gva;
using gas::HistOp;

// --- scenario library -------------------------------------------------------

// Sixteen single-writer words race two migrations of their block.
// Verifies that no acked write is ever lost by the move (the copy and
// the fence / forwarding must hand every landed byte to the new owner).
Scenario move_under_put() {
  Scenario s;
  s.name = "move-under-put";
  s.description = "puts to distinct words race two migrations of the block";
  s.start = [](World& world, gas::InvariantObserver& obs) {
    auto block = std::make_shared<Gva>();
    world.spawn(0, [&world, block](Context& ctx) -> Fiber {
      *block = alloc_cyclic(ctx, 1, 256);
      const Gva b = *block;
      const int n = ctx.ranks();
      // Four writers, four words each, issued as a burst per writer so
      // many same-destination arrivals share the commutativity window.
      for (int writer = 1; writer <= 4; ++writer) {
        const auto first = static_cast<std::uint64_t>(writer - 1) * 4;
        ctx.spawn(writer, [b, first](Context& c) -> Fiber {
          auto gate = std::make_shared<rt::AndGate>(4);
          for (std::uint64_t w = first; w < first + 4; ++w) {
            memput_value_nb<std::uint64_t>(
                c, b.advanced(static_cast<std::int64_t>(w) * 8, 256),
                0x100 + w, *gate);
          }
          co_await *gate;
        });
      }
      if (world.gas().supports_migration()) {
        ctx.spawn(5 % n, [b, n](Context& c) -> Fiber {
          co_await migrate(c, b, 6 % n);
          co_await migrate(c, b, 7 % n);
        });
      }
      co_return;
    });
    return std::function<void()>([&world, &obs, block] {
      const auto [owner, lva] = world.gas().owner_of(*block);
      for (std::uint64_t w = 0; w < 16; ++w) {
        const auto v = world.fabric().mem(owner).load<std::uint64_t>(lva + w * 8);
        if (v != 0x100 + w) {
          obs.fail(util::format(
              "move-under-put: word %llu reads %llx at final owner %d, "
              "expected %llx (an acked write was lost by the move)",
              static_cast<unsigned long long>(w),
              static_cast<unsigned long long>(v), owner,
              static_cast<unsigned long long>(0x100 + w)));
          return;
        }
      }
    });
  };
  return s;
}

// Concurrent put/put/fadd/get traffic on ONE word, recorded as a history
// and checked for sequential consistency (Wing–Gong) at quiescence. A
// migration runs underneath where the mode supports it.
Scenario put_put_race() {
  Scenario s;
  s.name = "put-put-race";
  s.description = "racing puts, a fetch-add and reads on one word, checked "
                  "for sequential consistency";
  s.start = [](World& world, gas::InvariantObserver& obs) {
    auto block = std::make_shared<Gva>();
    world.spawn(0, [&world, &obs, block](Context& ctx) -> Fiber {
      *block = alloc_cyclic(ctx, 1, 256);
      const Gva b = *block;
      const int n = ctx.ranks();
      for (int writer = 1; writer <= 3; ++writer) {
        ctx.spawn(writer, [&world, &obs, b, writer](Context& c) -> Fiber {
          for (int round = 0; round < 2; ++round) {
            HistOp op;
            op.kind = HistOp::Kind::kPut;
            op.proc = writer;
            op.value = static_cast<std::uint64_t>(writer + 8 * round);
            op.invoke = world.now();
            co_await memput_value<std::uint64_t>(c, b, op.value);
            op.complete = world.now();
            obs.record(op);
          }
        });
      }
      for (int reader = 4; reader <= 5; ++reader) {
        ctx.spawn(reader % n, [&world, &obs, b, reader, n](Context& c) -> Fiber {
          for (int i = 0; i < 3; ++i) {
            HistOp op;
            op.kind = HistOp::Kind::kGet;
            op.proc = reader % n;
            op.invoke = world.now();
            op.result = co_await memget_value<std::uint64_t>(c, b);
            op.complete = world.now();
            obs.record(op);
          }
        });
      }
      for (int adder = 6; adder <= 7; ++adder) {
        ctx.spawn(adder % n, [&world, &obs, b, adder, n](Context& c) -> Fiber {
          HistOp op;
          op.kind = HistOp::Kind::kFadd;
          op.proc = adder % n;
          op.value = adder == 6 ? 0x10u : 0x100u;
          op.invoke = world.now();
          op.result = co_await fetch_add(c, b, op.value);
          op.complete = world.now();
          obs.record(op);
        });
      }
      if (world.gas().supports_migration()) {
        ctx.spawn(1, [b, n](Context& c) -> Fiber {
          co_await migrate(c, b, 2 % n);
        });
      }
      co_return;
    });
    return std::function<void()>();  // linearizability runs at quiescence
  };
  return s;
}

// Every rank warms its translation (becoming a sharer / caching a TLB
// entry), then the block migrates while all ranks put through their —
// now stale — translations. Exercises the invalidation fence (sw) and
// forwarding/piggyback (net); the structural audit at commit proves no
// undetectably stale entry survives.
Scenario stale_cache_storm() {
  Scenario s;
  s.name = "stale-cache-storm";
  s.description = "all ranks cache a translation, then put through it while "
                  "the block migrates";
  s.start = [](World& world, gas::InvariantObserver& obs) {
    auto block = std::make_shared<Gva>();
    world.spawn(0, [&world, block](Context& ctx) -> Fiber {
      *block = alloc_cyclic(ctx, 1, 256);
      const Gva b = *block;
      const int n = ctx.ranks();
      auto warmed = std::make_shared<rt::AndGate>(static_cast<std::uint64_t>(n - 1));
      const rt::LcoRef gref = ctx.make_ref(*warmed);
      for (int r = 1; r < n; ++r) {
        ctx.spawn(r, [b, gref, warmed](Context& c) -> Fiber {
          // Warm: registers this rank as a sharer / fills its NIC TLB.
          (void)co_await memget_value<std::uint64_t>(c, b);
          c.set_lco(gref);
          // Put through the (soon stale) translation.
          const auto w = static_cast<std::uint64_t>(c.rank());
          co_await memput_value<std::uint64_t>(
              c, b.advanced(static_cast<std::int64_t>(w) * 8, 256), 0x200 + w);
        });
      }
      co_await *warmed;  // every rank holds a translation before the move
      if (world.gas().supports_migration()) {
        co_await migrate(ctx, b, (b.home(n) + 1) % n);
      }
    });
    return std::function<void()>([&world, &obs, block] {
      const auto [owner, lva] = world.gas().owner_of(*block);
      const int n = world.ranks();
      for (int r = 1; r < n; ++r) {
        const auto w = static_cast<std::uint64_t>(r);
        const auto v = world.fabric().mem(owner).load<std::uint64_t>(lva + w * 8);
        if (v != 0x200 + w) {
          obs.fail(util::format(
              "stale-cache-storm: rank %d's put reads back %llx at final "
              "owner %d, expected %llx (stale translation lost the write)",
              r, static_cast<unsigned long long>(v), owner,
              static_cast<unsigned long long>(0x200 + w)));
          return;
        }
      }
    });
  };
  return s;
}

// Two put-with-remote-notification producers race two concurrently
// requested migrations (the second queues behind the first at the home).
// The observer's signal ledger proves each notification fires exactly
// once; waiting consumers prove it fires at all (else: deadlock).
Scenario fence_chain_signal() {
  Scenario s;
  s.name = "fence-chain-signal";
  s.description = "memput_notify producers race chained migrations; "
                  "notifications must fire exactly once";
  s.start = [](World& world, gas::InvariantObserver& obs) {
    auto block = std::make_shared<Gva>();
    auto evs = std::make_shared<std::vector<std::unique_ptr<rt::Event>>>();
    for (int i = 0; i < 8; ++i) evs->push_back(std::make_unique<rt::Event>());
    world.spawn(0, [&world, block, evs](Context& ctx) -> Fiber {
      *block = alloc_cyclic(ctx, 1, 256);
      const Gva b = *block;
      const int n = ctx.ranks();
      // Four producers, two notifications each, every consumer on a
      // different rank.
      for (int i = 0; i < 4; ++i) {
        const int producer = 1 + i;
        std::vector<rt::LcoRef> refs;
        for (int round = 0; round < 2; ++round) {
          const int slot = i + 4 * round;
          const int consumer = (5 + slot) % n;
          refs.push_back(world.runtime().register_lco(
              consumer, *(*evs)[static_cast<std::size_t>(slot)]));
          ctx.spawn(consumer, [evs, slot](Context&) -> Fiber {
            co_await *(*evs)[static_cast<std::size_t>(slot)];
          });
        }
        ctx.spawn(producer, [b, refs, i](Context& c) -> Fiber {
          co_await memput_signal_value<std::uint64_t>(
              c, b.advanced(static_cast<std::int64_t>(i) * 8, 256),
              0xaa + static_cast<std::uint64_t>(i), refs[0]);
          co_await memput_signal_value<std::uint64_t>(
              c, b.advanced(static_cast<std::int64_t>(i + 8) * 8, 256),
              0xba + static_cast<std::uint64_t>(i), refs[1]);
        });
      }
      // Background puts keep the home busy while the chain runs.
      for (int r = 5; r <= 7; ++r) {
        const auto w = static_cast<std::uint64_t>(r);
        ctx.spawn(r % n, [b, w](Context& c) -> Fiber {
          co_await memput_value<std::uint64_t>(
              c, b.advanced(static_cast<std::int64_t>(w) * 8, 256), 0x300 + w);
        });
      }
      if (world.gas().supports_migration()) {
        // Concurrent requests: the second queues at the home and chains.
        ctx.spawn(3 % n, [b, n](Context& c) -> Fiber {
          co_await migrate(c, b, 3 % n);
        });
        ctx.spawn(4 % n, [b, n](Context& c) -> Fiber {
          co_await migrate(c, b, 4 % n);
        });
      }
      co_return;
    });
    return std::function<void()>([&world, &obs, block, evs] {
      const auto [owner, lva] = world.gas().owner_of(*block);
      for (std::uint64_t i = 0; i < 4; ++i) {
        const auto v =
            world.fabric().mem(owner).load<std::uint64_t>(lva + i * 8);
        const auto v2 =
            world.fabric().mem(owner).load<std::uint64_t>(lva + (i + 8) * 8);
        if (v != 0xaa + i || v2 != 0xba + i) {
          obs.fail(util::format(
              "fence-chain-signal: producer %llu's words read %llx/%llx at "
              "final owner %d, expected %llx/%llx",
              static_cast<unsigned long long>(i),
              static_cast<unsigned long long>(v),
              static_cast<unsigned long long>(v2), owner,
              static_cast<unsigned long long>(0xaa + i),
              static_cast<unsigned long long>(0xba + i)));
          return;
        }
      }
      for (std::uint64_t w = 5; w <= 7; ++w) {
        const auto v =
            world.fabric().mem(owner).load<std::uint64_t>(lva + w * 8);
        if (v != 0x300 + w) {
          obs.fail(util::format(
              "fence-chain-signal: background word %llu reads %llx, "
              "expected %llx",
              static_cast<unsigned long long>(w),
              static_cast<unsigned long long>(v),
              static_cast<unsigned long long>(0x300 + w)));
          return;
        }
      }
      for (const auto& ev : *evs) {
        if (!ev->triggered()) {
          obs.fail("fence-chain-signal: a remote notification never fired");
          return;
        }
      }
    });
  };
  return s;
}

// The lb balancer's epoch fires while puts to the victim block are
// still in flight: an aggressive greedy balancer (tiny epoch, cost gate
// effectively open) chases the writers' heat, so balancer-initiated
// migrations race the application's puts. Verifies no acked write is
// lost, plus the balancer migration ledger and all protocol invariants.
Scenario rebalance_under_put() {
  Scenario s;
  s.name = "rebalance-under-put";
  s.description = "balancer epochs migrate the victim block while puts to "
                  "it are in flight";
  s.configure = [](Config& cfg) {
    cfg.lb.policy = lb::PolicyKind::kGreedy;
    cfg.lb.epoch_ns = 4'000;
    cfg.lb.decay_shift = 1;
    cfg.lb.max_moves_per_epoch = 2;
    cfg.lb.max_inflight = 2;
    cfg.lb.min_heat = lb::kAccessUnit;           // one access is enough
    cfg.lb.benefit_ns_per_access = 1'000'000;    // cost gate wide open
  };
  s.start = [](World& world, gas::InvariantObserver& obs) {
    auto block = std::make_shared<Gva>();
    world.spawn(0, [block](Context& ctx) -> Fiber {
      *block = alloc_cyclic(ctx, 1, 256);
      const Gva b = *block;
      // Three writers, six words each, in two bursts a balancer epoch
      // apart: the first burst builds heat so an epoch migrates the
      // block while the second burst's puts are in flight.
      for (int writer = 1; writer <= 3; ++writer) {
        const auto first = static_cast<std::uint64_t>(writer - 1) * 6;
        ctx.spawn(writer, [b, first](Context& c) -> Fiber {
          for (int round = 0; round < 2; ++round) {
            auto gate = std::make_shared<rt::AndGate>(3);
            const std::uint64_t base =
                first + static_cast<std::uint64_t>(round) * 3;
            for (std::uint64_t w = base; w < base + 3; ++w) {
              memput_value_nb<std::uint64_t>(
                  c, b.advanced(static_cast<std::int64_t>(w) * 8, 256),
                  0x200 + w, *gate);
            }
            co_await *gate;
            if (round == 0) co_await c.sleep(4'000);
          }
        });
      }
      co_return;
    });
    return std::function<void()>([&world, &obs, block] {
      const auto [owner, lva] = world.gas().owner_of(*block);
      for (std::uint64_t w = 0; w < 18; ++w) {
        const auto v =
            world.fabric().mem(owner).load<std::uint64_t>(lva + w * 8);
        if (v != 0x200 + w) {
          obs.fail(util::format(
              "rebalance-under-put: word %llu reads %llx at final owner "
              "%d, expected %llx (a write raced a balancer migration and "
              "was lost)",
              static_cast<unsigned long long>(w),
              static_cast<unsigned long long>(v), owner,
              static_cast<unsigned long long>(0x200 + w)));
          return;
        }
      }
    });
  };
  return s;
}

// Deterministic frame drops (the first and third frame on every link)
// under a burst of puts and racing fetch-adds: the end-to-end
// retransmission layer must deliver every acked op exactly once. A lost
// put leaves a stale word; a duplicated fetch-add over-counts; and the
// conservation ledger must still reconcile drops and retransmits at
// quiescence. Forced drops consume no RNG draw, so every schedule the
// DFS explores replays the identical fault pattern.
Scenario drop_under_put() {
  Scenario s;
  s.name = "drop-under-put";
  s.description = "forced frame drops under racing puts and fetch-adds; "
                  "retransmission must deliver each op exactly once";
  s.configure = [](Config& cfg) {
    cfg.faults.forced_drops.push_back({-1, -1, 0});
    cfg.faults.forced_drops.push_back({-1, -1, 2});
  };
  s.start = [](World& world, gas::InvariantObserver& obs) {
    auto block = std::make_shared<Gva>();
    world.spawn(0, [block](Context& ctx) -> Fiber {
      *block = alloc_cyclic(ctx, 1, 256);
      const Gva b = *block;
      for (int writer = 1; writer <= 3; ++writer) {
        const auto first = static_cast<std::uint64_t>(writer - 1) * 4;
        ctx.spawn(writer, [b, first](Context& c) -> Fiber {
          auto gate = std::make_shared<rt::AndGate>(4);
          for (std::uint64_t w = first; w < first + 4; ++w) {
            memput_value_nb<std::uint64_t>(
                c, b.advanced(static_cast<std::int64_t>(w) * 8, 256),
                0x400 + w, *gate);
          }
          co_await *gate;
        });
      }
      for (int adder = 4; adder <= 5; ++adder) {
        ctx.spawn(adder, [b](Context& c) -> Fiber {
          for (int i = 0; i < 2; ++i) {
            (void)co_await fetch_add(c, b.advanced(15 * 8, 256), 1);
          }
        });
      }
      co_return;
    });
    return std::function<void()>([&world, &obs, block] {
      const auto [owner, lva] = world.gas().owner_of(*block);
      for (std::uint64_t w = 0; w < 12; ++w) {
        const auto v =
            world.fabric().mem(owner).load<std::uint64_t>(lva + w * 8);
        if (v != 0x400 + w) {
          obs.fail(util::format(
              "drop-under-put: word %llu reads %llx at owner %d, expected "
              "%llx (a dropped put was never retransmitted, or acked twice)",
              static_cast<unsigned long long>(w),
              static_cast<unsigned long long>(v), owner,
              static_cast<unsigned long long>(0x400 + w)));
          return;
        }
      }
      const auto total =
          world.fabric().mem(owner).load<std::uint64_t>(lva + 15 * 8);
      if (total != 4) {
        obs.fail(util::format(
            "drop-under-put: fetch-add counter reads %llu, expected 4 "
            "(retransmission duplicated or lost an atomic)",
            static_cast<unsigned long long>(total)));
      }
    });
  };
  return s;
}

// An opening brownout swallows every frame departing in [2, 14) µs on
// every link, so the writers' puts — and, in the agas modes, much of the
// protocol's own control traffic — only land as retransmissions, by
// which time the block has migrated (twice where supported). A
// retransmitted frame arriving at the old owner must be redirected
// exactly like a first transmission; a retransmission accepted twice
// across a generation change would double-apply a put.
Scenario retransmit_vs_migrate() {
  Scenario s;
  s.name = "retransmit-vs-migrate";
  s.description = "a brownout forces puts to land as retransmissions after "
                  "the block migrates; late frames must chase the move";
  s.configure = [](Config& cfg) {
    cfg.faults.brownouts.push_back({-1, -1, 2'000, 14'000});
  };
  s.start = [](World& world, gas::InvariantObserver& obs) {
    auto block = std::make_shared<Gva>();
    world.spawn(0, [&world, block](Context& ctx) -> Fiber {
      *block = alloc_cyclic(ctx, 1, 256);
      const Gva b = *block;
      const int n = ctx.ranks();
      for (int writer = 1; writer <= 4; ++writer) {
        const auto first = static_cast<std::uint64_t>(writer - 1) * 2;
        ctx.spawn(writer, [b, first](Context& c) -> Fiber {
          auto gate = std::make_shared<rt::AndGate>(2);
          for (std::uint64_t w = first; w < first + 2; ++w) {
            memput_value_nb<std::uint64_t>(
                c, b.advanced(static_cast<std::int64_t>(w) * 8, 256),
                0x500 + w, *gate);
          }
          co_await *gate;
        });
      }
      if (world.gas().supports_migration()) {
        ctx.spawn(5 % n, [b, n](Context& c) -> Fiber {
          co_await c.sleep(3'000);  // move while the first wave is browned out
          co_await migrate(c, b, 6 % n);
          co_await migrate(c, b, 7 % n);
        });
      }
      co_return;
    });
    return std::function<void()>([&world, &obs, block] {
      const auto [owner, lva] = world.gas().owner_of(*block);
      for (std::uint64_t w = 0; w < 8; ++w) {
        const auto v =
            world.fabric().mem(owner).load<std::uint64_t>(lva + w * 8);
        if (v != 0x500 + w) {
          obs.fail(util::format(
              "retransmit-vs-migrate: word %llu reads %llx at final owner "
              "%d, expected %llx (a retransmitted put lost the moved block)",
              static_cast<unsigned long long>(w),
              static_cast<unsigned long long>(v), owner,
              static_cast<unsigned long long>(0x500 + w)));
          return;
        }
      }
    });
  };
  return s;
}

// When each destination of chained_move_resolve resolves: with the
// default costs, inside the span of its own move in which the home still
// answers with the old owner and the reply lands after the destination
// installed its pinned entry.
constexpr sim::Time kHop1AskNs = 3'000;
constexpr sim::Time kHop2AskNs = 9'000;

// A chained move (A→B while B→C): the block, homed and owned at A, is
// asked to move to B and, before that move commits, on to C (the second
// request queues at the home). Each destination resolves the block while
// the moves run and then applies an action to it. A home answers a
// resolve with the old owner while the block is in flight; that reply
// must not replace the pinned entry its destination installed meanwhile
// (the owner-entry audit at commit), and each apply must reach the owner
// exactly once instead of bouncing between two ranks (the livelock
// watchdog).
Scenario chained_move_resolve() {
  Scenario s;
  s.name = "chained-move-resolve";
  s.description = "a block moves A->B->C while both destinations resolve "
                  "it and apply an action to it";
  s.start = [](World& world, gas::InvariantObserver& obs) {
    auto block = std::make_shared<Gva>();
    auto applied = std::make_shared<int>(0);
    const auto poke = world.runtime().actions().add(
        "mcheck.chained.poke",
        [applied](Context&, int, util::Buffer) { ++*applied; });
    world.spawn(0, [&world, block, poke](Context& ctx) -> Fiber {
      *block = alloc_cyclic(ctx, 1, 256);
      const Gva b = *block;
      const int n = ctx.ranks();
      const int home = b.home(n);
      const int hop1 = (home + 1) % n;
      const int hop2 = (home + 2) % n;
      if (world.gas().supports_migration()) {
        // Both requests leave one rank back to back, so they reach the
        // home in order under every schedule (links are FIFO).
        ctx.spawn((home + 3) % n, [b, hop1, hop2](Context& c) -> Fiber {
          auto gate = std::make_shared<rt::AndGate>(2);
          migrate_nb(c, b, hop1, *gate);
          migrate_nb(c, b, hop2, *gate);
          co_await *gate;
        });
      }
      // Each destination asks while its own move is still in flight.
      const std::pair<int, sim::Time> askers[] = {{hop1, kHop1AskNs},
                                                  {hop2, kHop2AskNs}};
      for (const auto& [rank, delay] : askers) {
        ctx.spawn(rank, [b, poke, delay](Context& c) -> Fiber {
          co_await c.sleep(delay);
          (void)co_await resolve(c, b);
          co_await apply(c, b, poke, {});
        });
      }
      co_return;
    });
    return std::function<void()>([&world, &obs, block, applied] {
      const int n = world.ranks();
      const int owner = world.gas().owner_of(*block).first;
      const int want = world.gas().supports_migration()
                           ? (block->home(n) + 2) % n
                           : block->home(n);
      if (owner != want) {
        obs.fail(util::format("chained-move-resolve: block ends at node %d, "
                              "expected %d",
                              owner, want));
      }
      if (*applied != 2) {
        obs.fail(util::format("chained-move-resolve: %d of 2 applies ran",
                              *applied));
      }
    });
  };
  return s;
}

// How long apply_chase's sender lets the network settle after a parcel
// arrives, so every message it caused — a forward's repair included —
// has landed: well past two of the Explorer's largest delays (four
// commutativity windows each).
constexpr sim::Time kSettleNs = 40'000;

// A stale sender applies to a block while the block moves twice
// (H->A->B), then applies twice more once the moves have settled. Each
// parcel must reach its target exactly once. The apply racing the moves
// may land at a node that still owns the block, or be forwarded by one
// whose view is a move behind, so the first apply after the moves may
// still be forwarded, once; the one after it must reach the owner with
// no forward. Under agas-net only the forward-time repair of the sender's
// translation achieves that; under agas-sw the invalidations do, and a
// forward can race the sender's invalidation.
Scenario apply_chase() {
  Scenario s;
  s.name = "apply-chase";
  s.description = "a stale sender applies while the block moves twice; its "
                  "later applies must stop being forwarded";
  s.start = [](World& world, gas::InvariantObserver& obs) {
    struct Chase {
      Gva block;
      int arrived[3] = {};
      std::uint64_t forwards_at_issue[3] = {};
      std::uint64_t forwards_at_arrival[3] = {};
    };
    auto st = std::make_shared<Chase>();
    const auto poke = world.runtime().actions().add(
        "mcheck.chase.poke", [&world, st](Context&, int, util::Buffer args) {
          const auto k = args.reader().get<std::uint8_t>();
          ++st->arrived[k];
          st->forwards_at_arrival[k] = world.counters().apply_forwards;
        });
    world.spawn(0, [&world, st, poke](Context& ctx) -> Fiber {
      st->block = alloc_cyclic(ctx, 1, 256);
      const Gva b = st->block;
      const int n = ctx.ranks();
      const int home = b.home(n);
      ctx.spawn((home + 3) % n, [&world, st, poke, b, home, n](Context& c) -> Fiber {
        const auto send = [&world, st, poke, b](Context& cc, std::uint8_t k) {
          st->forwards_at_issue[k] = world.counters().apply_forwards;
          util::Buffer tag;
          tag.put<std::uint8_t>(k);
          return apply(cc, b, poke, std::move(tag));
        };
        // Warm: the sender learns the block at its home.
        (void)co_await resolve(c, b);
        std::shared_ptr<rt::Event> settled;
        if (world.gas().supports_migration()) {
          settled = std::make_shared<rt::Event>();
          const rt::LcoRef ref = c.make_ref(*settled);
          c.spawn((home + 4) % n, [b, home, n, ref](Context& m) -> Fiber {
            co_await migrate(m, b, (home + 1) % n);
            co_await migrate(m, b, (home + 2) % n);
            m.set_lco(ref);
          });
        }
        co_await send(c, 0);  // races both moves
        if (settled) co_await *settled;
        for (std::uint8_t k = 1; k < 3; ++k) {
          while (st->arrived[k - 1] == 0) co_await c.sleep(1'000);
          co_await c.sleep(kSettleNs);
          co_await send(c, k);
        }
      });
      co_return;
    });
    return std::function<void()>([&world, &obs, st] {
      for (int k = 0; k < 3; ++k) {
        if (st->arrived[k] != 1) {
          obs.fail(util::format("apply-chase: apply %d arrived %d times", k + 1,
                                st->arrived[k]));
          return;
        }
      }
      // Forwards while apply k was the only traffic in flight.
      const auto forwards = [&st](int k) {
        return static_cast<unsigned long long>(st->forwards_at_arrival[k] -
                                               st->forwards_at_issue[k]);
      };
      if (forwards(1) > 1 || forwards(2) != 0) {
        obs.fail(util::format(
            "apply-chase: after the moves settled, the sender's applies were "
            "forwarded %llu and %llu times (expected at most 1, then 0: a "
            "forward did not repair the sender's translation)",
            forwards(1), forwards(2)));
      }
      const int n = world.ranks();
      const int want = world.gas().supports_migration()
                           ? (st->block.home(n) + 2) % n
                           : st->block.home(n);
      if (world.gas().owner_of(st->block).first != want) {
        obs.fail(util::format("apply-chase: block ends at node %d, expected %d",
                              world.gas().owner_of(st->block).first, want));
      }
    });
  };
  return s;
}

// --- single-schedule execution ----------------------------------------------

struct RunOutcome {
  std::uint64_t order_hash = 0;
  std::uint64_t checks = 0;
  std::vector<std::uint64_t> points;  // commutative choice points
  bool ok = true;
  std::string message;
};

RunOutcome run_schedule(const Scenario& sc, const McheckOptions& opt,
                        const sim::Schedule& schedule) {
  Config cfg = Config::with_nodes(opt.nodes, opt.mode);
  cfg.gas_costs.fault_sw_skip_one_sharer_inv = opt.fault_sw_skip_sharer_inv;
  if (sc.configure) sc.configure(cfg);

  // Construction order is destruction-safety: the Explorer outlives the
  // World (NICs hold a raw pointer); the observer is declared after the
  // World so its detaching destructor runs while the manager is alive.
  sim::Explorer explorer(opt.window_ns);
  explorer.arm(schedule);
  World world(cfg);
  world.fabric().set_explorer(&explorer);
  gas::InvariantObserver obs(world.gas());

  auto verify = sc.start(world, obs);
  const std::uint64_t executed = world.run(opt.max_events);

  if (executed >= opt.max_events) {
    // The looping op usually targets the block whose translation broke:
    // name it, since the commit-time audits may not have run since.
    const std::string finding = world.gas().audit_translation();
    obs.fail(util::format("livelock: still busy after %llu events%s%s",
                          static_cast<unsigned long long>(executed),
                          finding.empty() ? "" : "; ", finding.c_str()));
  } else if (world.runtime().live_fibers() != 0) {
    obs.fail(util::format("deadlock: %zu fiber(s) suspended after drain",
                          world.runtime().live_fibers()));
  } else {
    if (verify) verify();
    (void)obs.check_quiescent(world.counters());
  }

  RunOutcome out;
  out.order_hash = explorer.order_hash();
  out.checks = obs.checks();
  out.points = explorer.commutative_points();
  out.ok = obs.ok();
  out.message = obs.first_violation();
  return out;
}

McheckResult make_result(const Scenario& sc, const McheckOptions& opt) {
  McheckResult res;
  res.scenario = sc.name;
  res.mode = opt.mode;
  return res;
}

}  // namespace

std::vector<Scenario> scenario_library() {
  std::vector<Scenario> lib;
  lib.push_back(move_under_put());
  lib.push_back(put_put_race());
  lib.push_back(stale_cache_storm());
  lib.push_back(fence_chain_signal());
  lib.push_back(rebalance_under_put());
  lib.push_back(drop_under_put());
  lib.push_back(retransmit_vs_migrate());
  lib.push_back(chained_move_resolve());
  lib.push_back(apply_chase());
  return lib;
}

McheckResult run_one(const Scenario& sc, const McheckOptions& opt,
                     const sim::Schedule& schedule) {
  McheckResult res = make_result(sc, opt);
  const RunOutcome out = run_schedule(sc, opt, schedule);
  res.schedules_run = 1;
  res.distinct_orders = 1;
  res.invariant_checks = out.checks;
  res.choice_points = out.points.size();
  if (!out.ok) {
    res.violation = true;
    res.counterexample = schedule.str();
    res.message = out.message;
  }
  return res;
}

McheckResult run_scenario(const Scenario& sc, const McheckOptions& opt) {
  McheckResult res = make_result(sc, opt);

  // Baseline: the unperturbed order. Its commutative points become the
  // DFS alphabet; its order hash seeds the pruning set.
  const RunOutcome base = run_schedule(sc, opt, sim::Schedule{});
  res.schedules_run = 1;
  res.invariant_checks = base.checks;
  res.choice_points = base.points.size();
  // simlint:allow(D1: membership set, never iterated)
  std::unordered_set<std::uint64_t> orders;
  orders.insert(base.order_hash);
  if (!base.ok) {
    res.violation = true;
    res.counterexample = sim::Schedule{}.str();
    res.message = base.message;
    res.distinct_orders = orders.size();
    return res;
  }

  // Iterative-deepening DFS over delay assignments. A schedule at depth d
  // delays d distinct injections; only schedules that produced a NEW
  // delivery order are extended (delaying a message that did not reorder
  // anything cannot open new interleavings), and extensions add only
  // injection indices above the schedule's largest — each delay set is
  // enumerated once.
  std::vector<sim::Schedule> frontier{sim::Schedule{}};
  for (int depth = 1;
       depth <= opt.delay_bound && res.schedules_run < opt.max_schedules;
       ++depth) {
    std::vector<sim::Schedule> next;
    for (const auto& sched : frontier) {
      if (res.schedules_run >= opt.max_schedules) break;
      const std::uint64_t min_index =
          sched.empty() ? 0 : sched.delays.back().first + 1;
      for (const std::uint64_t point : base.points) {
        if (point < min_index) continue;
        if (res.schedules_run >= opt.max_schedules) break;
        for (std::uint8_t choice = 1;
             choice <= static_cast<std::uint8_t>(sim::Explorer::kChoices);
             ++choice) {
          if (res.schedules_run >= opt.max_schedules) break;
          sim::Schedule ext = sched;
          ext.set(point, choice);
          const RunOutcome out = run_schedule(sc, opt, ext);
          ++res.schedules_run;
          res.invariant_checks += out.checks;
          const bool fresh = orders.insert(out.order_hash).second;
          if (!out.ok) {
            res.violation = true;
            res.counterexample = ext.str();
            res.message = out.message;
            res.distinct_orders = orders.size();
            return res;
          }
          if (fresh) next.push_back(std::move(ext));
        }
      }
    }
    frontier = std::move(next);
  }

  res.distinct_orders = orders.size();
  return res;
}

}  // namespace nvgas::core
