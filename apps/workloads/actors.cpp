#include "workloads/actors.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "rt/action.hpp"
#include "rt/lco.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace nvgas::apps::workloads {

namespace {
constexpr std::uint32_t kActorState = 1024;
}  // namespace

lb::LbConfig actors_lb_config(lb::PolicyKind policy) {
  lb::LbConfig lb;
  lb.policy = policy;
  lb.epoch_ns = 100'000;
  lb.decay_shift = 1;
  lb.max_moves_per_epoch = 3;
  lb.max_inflight = 3;
  lb.min_heat = 2 * lb::kAccessUnit;
  lb.benefit_ns_per_access = kActorTaskNs;
  return lb;
}

ActorResult run_actors(World& world, const ActorSpec& spec) {
  const std::uint32_t actors = spec.actors;
  const std::uint64_t tasks = spec.tasks;
  std::vector<std::uint64_t> actor_tasks(actors, 0);
  sim::Time done_ns = 0;
  rt::AndGate all_done(tasks);

  Gva actor_base;
  const auto work = rt::register_action<std::uint32_t, rt::LcoRef>(
      world.runtime().actions(), "lb.work",
      [&](Context& c, int, std::uint32_t actor, rt::LcoRef cont) {
        c.charge(kActorTaskNs);
        ++actor_tasks[actor];
        all_done.arrive(c.now());
        c.set_lco(cont);
      });

  world.spawn(0, [&](Context& ctx) -> Fiber {
    actor_base = alloc_local(ctx, actors, kActorState);

    const std::uint64_t per_rank = tasks / static_cast<std::uint64_t>(ctx.ranks());
    const std::uint64_t rem = tasks - per_rank * static_cast<std::uint64_t>(ctx.ranks());
    for (int r = 0; r < ctx.ranks(); ++r) {
      const std::uint64_t mine = per_rank + (r < static_cast<int>(rem) ? 1 : 0);
      ctx.spawn(r, [&, r, mine](Context& c) -> Fiber {
        util::Rng rng(42 + static_cast<std::uint64_t>(r));
        util::ZipfGenerator zipf(actors, spec.zipf_s);
        // Closed loop: one task in flight per rank.
        for (std::uint64_t i = 0; i < mine; ++i) {
          const auto actor = static_cast<std::uint32_t>(zipf.sample(rng));
          const Gva addr = actor_base.advanced(
              static_cast<std::int64_t>(actor) * kActorState, kActorState);
          rt::Event task_done;
          const rt::LcoRef ref = c.make_ref(task_done);
          co_await apply(c, addr, work, rt::pack_args(actor, ref));
          co_await task_done;
          c.release_ref(ref);
        }
      });
    }
    co_await all_done;
    done_ns = ctx.now();
  });
  world.run();

  const int nodes = world.fabric().nodes();
  std::vector<std::uint64_t> final_load(static_cast<std::size_t>(nodes), 0);
  for (std::uint32_t a = 0; a < actors; ++a) {
    const Gva addr =
        actor_base.advanced(static_cast<std::int64_t>(a) * kActorState, kActorState);
    final_load[static_cast<std::size_t>(world.gas().owner_of(addr).first)] +=
        actor_tasks[a];
  }
  ActorResult out;
  out.makespan = done_ns;
  out.tasks_run = std::accumulate(actor_tasks.begin(), actor_tasks.end(),
                                  std::uint64_t{0});
  out.peak_load = *std::max_element(final_load.begin(), final_load.end());
  out.imbalance = static_cast<double>(out.peak_load) /
                  (static_cast<double>(tasks) / nodes);
  return out;
}

}  // namespace nvgas::apps::workloads
