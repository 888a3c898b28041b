// Mobile actors under a skewed workload — the load-balancing scenario
// that motivates an *active* global address space (R-F6's workload).
//
//   build/examples/actor_migration [--nodes=8] [--mode=agas-net]
//                                  [--actors=64] [--tasks=2000]
//                                  [--zipf=1.2] [--rebalance=true]
//
// Actors are global blocks holding state; work items are parcels routed
// to each actor's current owner with apply(). All actors are *born on
// rank 0* (the common real-world pattern: data is loaded where it
// arrives), so the task stream initially hammers one rank. With
// `--rebalance`, a balancer fiber migrates busy actors to idle ranks —
// impossible under PGAS, cheap under network-managed AGAS. Compare
// makespans:
//
//   actor_migration --mode=agas-net --rebalance=false
//   actor_migration --mode=agas-net --rebalance=true
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/nvgas.hpp"
#include "util/zipf.hpp"

namespace {

constexpr std::uint32_t kActorStateBytes = 1024;
constexpr nvgas::sim::Time kTaskComputeNs = 20'000;  // 20 us of work per task

}  // namespace

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = static_cast<int>(opt.get_int("nodes", 8));
  const std::uint32_t actors = static_cast<std::uint32_t>(opt.get_uint("actors", 64));
  const std::uint64_t tasks = opt.get_uint("tasks", 2000);
  const double zipf_s = opt.get_double("zipf", 0.9);
  const bool rebalance = opt.get_bool("rebalance", true);
  const bool report = opt.get_bool("report", false);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  nvgas::World world(cfg);
  const bool can_migrate = world.gas().supports_migration();

  std::printf("actors: %u actors, %llu tasks (zipf %.2f), %d nodes, %s, rebalance=%s\n",
              actors, static_cast<unsigned long long>(tasks), zipf_s, nodes,
              nvgas::gas::to_string(cfg.gas_mode),
              rebalance && can_migrate ? "on" : "off");

  // Per-actor counters: lifetime totals (for reporting) and a sliding
  // window (what the balancer acts on).
  std::vector<std::uint64_t> actor_tasks(actors, 0);
  std::vector<std::uint64_t> window_tasks(actors, 0);
  std::uint64_t completed = 0;
  nvgas::rt::AndGate all_done(tasks);

  // The actor behaviour: charge compute, bump the actor's visit count in
  // its state block (word 0), and report completion.
  nvgas::Gva actor_base;
  const auto work = nvgas::rt::register_action<std::uint32_t, nvgas::rt::LcoRef>(
      world.runtime().actions(), "actor.work",
      [&](nvgas::Context& c, int, std::uint32_t actor, nvgas::rt::LcoRef cont) {
        c.charge(kTaskComputeNs);
        ++actor_tasks[actor];
        ++window_tasks[actor];
        ++completed;
        all_done.arrive(c.now());
        c.set_lco(cont);  // closed loop: tell the generator
      });

  world.spawn(0, [&](nvgas::Context& ctx) -> nvgas::Fiber {
    // kLocal: every actor starts on rank 0 — the imbalance migration must
    // repair. (PGAS is stuck with this placement forever.)
    actor_base = nvgas::alloc_local(ctx, actors, kActorStateBytes);

    // Task generator: every rank submits its share of the Zipf stream.
    const std::uint64_t per_rank = tasks / static_cast<std::uint64_t>(ctx.ranks());
    const std::uint64_t remainder = tasks - per_rank * static_cast<std::uint64_t>(ctx.ranks());
    for (int r = 0; r < ctx.ranks(); ++r) {
      const std::uint64_t mine = per_rank + (r < static_cast<int>(remainder) ? 1 : 0);
      ctx.spawn(r, [&, r, mine](nvgas::Context& c) -> nvgas::Fiber {
        nvgas::util::Rng rng(42 + static_cast<std::uint64_t>(r));
        nvgas::util::ZipfGenerator zipf(actors, zipf_s);
        // Closed loop: one task in flight per generator. Submission (and
        // therefore routing) adapts to the service rate, so placement
        // repairs show up directly as throughput.
        for (std::uint64_t i = 0; i < mine; ++i) {
          const auto actor = static_cast<std::uint32_t>(zipf.sample(rng));
          const nvgas::Gva addr = actor_base.advanced(
              static_cast<std::int64_t>(actor) * kActorStateBytes,
              kActorStateBytes);
          nvgas::rt::Event task_done;
          const nvgas::rt::LcoRef ref = c.make_ref(task_done);
          co_await nvgas::apply(c, addr, work, nvgas::rt::pack_args(actor, ref));
          co_await task_done;
          c.release_ref(ref);
        }
      });
    }

    // The balancer: periodically move the hottest actors off the busiest
    // rank onto the least busy one.
    if (rebalance && can_migrate) {
      // The balancer lives on the last rank — the initial hot rank (0)
      // has no CPU to spare.
      ctx.spawn(ctx.ranks() - 1, [&](nvgas::Context& c) -> nvgas::Fiber {
        while (completed < tasks) {
          co_await c.sleep(100'000);  // every 100 us
          // Per-rank load over the last window, given current placement.
          std::vector<std::uint64_t> load(static_cast<std::size_t>(c.ranks()), 0);
          std::vector<int> owner(actors);
          for (std::uint32_t a = 0; a < actors; ++a) {
            const nvgas::Gva addr = actor_base.advanced(
                static_cast<std::int64_t>(a) * kActorStateBytes, kActorStateBytes);
            owner[a] = world.gas().owner_of(addr).first;
            load[static_cast<std::size_t>(owner[a])] += window_tasks[a];
          }
          // Move hot actors from the busiest rank to the idlest until the
          // estimated transfer would overshoot (classic greedy repair).
          for (int moves = 0; moves < 3; ++moves) {
            const auto busiest = static_cast<int>(
                std::max_element(load.begin(), load.end()) - load.begin());
            const auto idlest = static_cast<int>(
                std::min_element(load.begin(), load.end()) - load.begin());
            const auto hi = load[static_cast<std::size_t>(busiest)];
            const auto lo = load[static_cast<std::size_t>(idlest)];
            if (busiest == idlest || hi < lo + lo / 2 + 2) break;
            std::uint32_t hottest = actors;
            std::uint64_t hottest_count = 0;
            for (std::uint32_t a = 0; a < actors; ++a) {
              // Only move actors whose load fits in the gap (don't just
              // bounce the single hottest actor back and forth).
              if (owner[a] == busiest && window_tasks[a] >= hottest_count &&
                  window_tasks[a] <= (hi - lo) ) {
                hottest = a;
                hottest_count = window_tasks[a];
              }
            }
            if (hottest == actors || hottest_count == 0) break;
            const nvgas::Gva addr = actor_base.advanced(
                static_cast<std::int64_t>(hottest) * kActorStateBytes,
                kActorStateBytes);
            co_await nvgas::migrate(c, addr, idlest);
            owner[hottest] = idlest;
            load[static_cast<std::size_t>(busiest)] -= hottest_count;
            load[static_cast<std::size_t>(idlest)] += hottest_count;
          }
          for (auto& w : window_tasks) w = 0;  // fresh window
        }
      });
    }
    co_await all_done;
  });
  world.run();

  // Report makespan and the final placement balance.
  std::vector<std::uint64_t> final_load(static_cast<std::size_t>(nodes), 0);
  for (std::uint32_t a = 0; a < actors; ++a) {
    const nvgas::Gva addr = actor_base.advanced(
        static_cast<std::int64_t>(a) * kActorStateBytes, kActorStateBytes);
    final_load[static_cast<std::size_t>(world.gas().owner_of(addr).first)] +=
        actor_tasks[a];
  }
  const auto peak = *std::max_element(final_load.begin(), final_load.end());
  const double mean = static_cast<double>(tasks) / nodes;

  std::printf("\nmakespan            : %s (simulated)\n",
              nvgas::util::format_ns(static_cast<double>(world.now())).c_str());
  std::printf("migrations          : %llu\n",
              static_cast<unsigned long long>(world.counters().migrations));
  std::printf("peak rank load      : %llu tasks (perfect balance would be %.0f)\n",
              static_cast<unsigned long long>(peak), mean);
  std::printf("imbalance factor    : %.2fx\n", static_cast<double>(peak) / mean);
  if (report) {
    std::printf("\n%s", world.report().c_str());
  }
  return 0;
}
