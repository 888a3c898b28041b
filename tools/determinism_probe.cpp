// Determinism double-run gate.
//
// Prints the FNV-1a trace hashes of (a) a seeded timing-wheel engine
// stress schedule and (b) full World integration scenarios in every
// address-space mode. CI runs the binary TWICE in separate processes and
// fails if the outputs differ: cross-process comparison is what catches
// address-order nondeterminism (ASLR moves the heap between runs, so a
// pointer-keyed ordering or unordered-container iteration shows up as a
// hash flip even when a single-process rerun looks stable).
//
//   determinism_probe [--seed=N]        print one line per scenario hash
//   determinism_probe --self-check      run every scenario twice in-process
//                                       and exit 1 on any hash mismatch
//
// tools/determinism_golden.txt holds the expected `--seed=1` output; the
// ctest `determinism_golden` diffs against it, so any change to the
// simulated model shows up as a failing test (update the file in the
// same change that deliberately alters the model).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/nvgas.hpp"
#include "kvstore/harness.hpp"
#include "util/rng.hpp"

namespace {

using nvgas::sim::Time;

// Scenario A: the sim_engine_wheel workload shape — randomized delays
// around the wheel horizon, nested rescheduling, cancellations.
std::uint64_t engine_wheel_hash(std::uint64_t seed) {
  nvgas::sim::Engine e;
  nvgas::util::Rng rng(seed);
  std::vector<nvgas::sim::Engine::TimerId> timers;
  for (int i = 0; i < 2000; ++i) {
    const Time t = rng.next() % (4 * nvgas::sim::Engine::kDefaultHorizonNs);
    if (rng.next() % 4 == 0) {
      timers.push_back(e.at_cancellable(t, [] {}));
    } else {
      e.at(t, [&e, &rng] {
        if (rng.next() % 8 == 0) {
          e.after(rng.next() % 512, [] {});
        }
      });
    }
  }
  for (std::size_t i = 0; i < timers.size(); i += 2) {
    (void)e.cancel(timers[i]);
  }
  e.run();
  return e.trace_hash();
}

// Scenario B: a full World integration pass — allocation, one-sided
// puts/gets, atomics, migration, spanning I/O — on one GAS mode.
void run_world_program(nvgas::World& world) {
  world.run_spmd([&world](nvgas::Context& ctx) -> nvgas::Fiber {
    const nvgas::Gva table = nvgas::alloc_cyclic(ctx, 8, 4096);
    for (int b = 0; b < 8; ++b) {
      co_await nvgas::memput_value<double>(
          ctx, table.advanced(b * 4096, 4096), ctx.rank() + b * 1.5);
    }
    const nvgas::Gva counter = nvgas::alloc_cyclic(ctx, 1, 64);
    for (int i = 0; i < 4; ++i) {
      (void)co_await nvgas::fetch_add(ctx, counter, 7);
    }
    (void)co_await nvgas::memget_value<double>(
        ctx, table.advanced(((ctx.rank() + 3) % 8) * 4096, 4096));
    co_await world.coll().barrier(ctx);
    if (world.gas().supports_migration() && ctx.rank() == 0) {
      co_await nvgas::migrate(ctx, table, (table.home(ctx.ranks()) + 2) % ctx.ranks());
      (void)co_await nvgas::memget_value<double>(ctx, table);
    }
    std::vector<std::byte> bulk(2 * 4096);
    for (std::size_t i = 0; i < bulk.size(); ++i) {
      bulk[i] = static_cast<std::byte>((i + static_cast<std::size_t>(ctx.rank())) & 0xff);
    }
    co_await nvgas::memput_span(ctx, table.advanced(5 * 4096, 4096), bulk);
    (void)co_await nvgas::memget_span(ctx, table.advanced(5 * 4096, 4096), bulk.size());
    co_await world.coll().barrier(ctx);
    nvgas::free_alloc(ctx, counter);
    nvgas::free_alloc(ctx, table);
  });
}

std::uint64_t world_hash(nvgas::GasMode mode, std::uint64_t seed,
                         const nvgas::sim::FaultPlan& faults = {}) {
  nvgas::Config cfg = nvgas::Config::with_nodes(8, mode);
  cfg.seed = seed;
  cfg.faults = faults;  // empty plan: injector never built, trace untouched
  nvgas::World world(cfg);
  run_world_program(world);
  return world.engine().trace_hash();
}

// Scenario B on agas-net with 4-entry NIC TLBs, followed by a phase
// whose routing depends on NIC-TLB eviction: every block of a fresh
// allocation moves off its home, then each rank sweeps all eight blocks
// twice. With room for them, the second sweep goes straight to the
// owners; with 4 entries, LRU has evicted each translation before its
// revisit, so the op detours through the home again.
struct TlbRun {
  std::uint64_t hash;
  std::uint64_t evictions;  // summed over every NIC
};

TlbRun agas_net_tlb_run(std::size_t tlb_capacity, std::uint64_t seed) {
  nvgas::Config cfg = nvgas::Config::with_nodes(8, nvgas::GasMode::kAgasNet);
  cfg.seed = seed;
  cfg.agas_net.tlb_capacity = tlb_capacity;
  nvgas::World world(cfg);
  run_world_program(world);
  world.run_spmd([&world](nvgas::Context& ctx) -> nvgas::Fiber {
    const nvgas::Gva table = nvgas::alloc_cyclic(ctx, 8, 256);
    co_await world.coll().barrier(ctx);
    if (ctx.rank() == 0) {
      for (int b = 0; b < 8; ++b) {
        const nvgas::Gva block = table.advanced(b * 256, 256);
        co_await nvgas::migrate(ctx, block, (block.home(8) + 3) % 8);
      }
    }
    co_await world.coll().barrier(ctx);
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (int b = 0; b < 8; ++b) {
        (void)co_await nvgas::memget_value<std::uint64_t>(
            ctx, table.advanced(((ctx.rank() + b) % 8) * 256, 256));
      }
    }
    co_await world.coll().barrier(ctx);
    nvgas::free_alloc(ctx, table);
  });
  const auto& net = dynamic_cast<const nvgas::gas::AgasNet&>(world.gas());
  TlbRun run{world.engine().trace_hash(), 0};
  for (int n = 0; n < cfg.machine.nodes; ++n) {
    run.evictions += net.tlb(n).evictions();
  }
  return run;
}

// Exits 1 unless some NIC evicted and the hash differs from the same
// program with default-capacity TLBs: otherwise the scenario would
// cover nothing the default does.
std::uint64_t world_agas_net_tlb4(std::uint64_t seed) {
  const TlbRun small = agas_net_tlb_run(4, seed);
  const TlbRun roomy =
      agas_net_tlb_run(nvgas::gas::AgasNetConfig{}.tlb_capacity, seed);
  if (small.evictions == 0 || small.hash == roomy.hash) {
    std::fprintf(stderr,
                 "world_agas_net_tlb4: %llu eviction(s), hash %s the "
                 "default-capacity run's\n",
                 static_cast<unsigned long long>(small.evictions),
                 small.hash == roomy.hash ? "equals" : "differs from");
    std::exit(1);
  }
  return small.hash;
}

// Scenario B's agas-sw counterpart of world_agas_net_tlb4: 4-entry
// translation caches, and a phase in which each rank fires a put, a
// fetch_add, a get and a resolve at one block at once, so three ops wait
// on the first one's resolve, for each of eight blocks, twice. Between
// the sweeps rank 0 moves one block while the other ranks go on, so
// resolves also wait behind the move at the home. With 4 entries LRU has
// evicted each translation before its revisit.
void four_ops_at_once(nvgas::Context& ctx, nvgas::World& world,
                      nvgas::Gva block, nvgas::rt::AndGate& gate) {
  nvgas::rt::AndGate* g = &gate;
  nvgas::sim::TaskCtx& task = nvgas::detail::task_of(ctx);
  nvgas::gas::GasBase& gas = world.gas();
  gas.memput(task, ctx.rank(), block.advanced(8, 256),
             std::vector<std::byte>(8, std::byte{1}), [g](Time t) { g->arrive(t); });
  gas.fetch_add(task, ctx.rank(), block, 1,
                [g](Time t, std::uint64_t) { g->arrive(t); });
  gas.memget(task, ctx.rank(), block, 16,
             [g](Time t, std::vector<std::byte>) { g->arrive(t); });
  gas.resolve(task, ctx.rank(), block, [g](Time t, int) { g->arrive(t); });
}

struct SwCacheRun {
  std::uint64_t hash;
  std::uint64_t evictions;  // summed over every node's cache
};

SwCacheRun agas_sw_cache_run(std::size_t capacity, std::uint64_t seed) {
  nvgas::Config cfg = nvgas::Config::with_nodes(8, nvgas::GasMode::kAgasSw);
  cfg.seed = seed;
  cfg.gas_costs.sw_cache_capacity = capacity;
  nvgas::World world(cfg);
  world.run_spmd([&world](nvgas::Context& ctx) -> nvgas::Fiber {
    const nvgas::Gva table = nvgas::alloc_cyclic(ctx, 8, 256);
    co_await world.coll().barrier(ctx);
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (int b = 0; b < 8; ++b) {
        nvgas::rt::AndGate gate(4);
        four_ops_at_once(ctx, world,
                         table.advanced(((ctx.rank() + b) % 8) * 256, 256), gate);
        co_await gate;
      }
      if (sweep == 0 && ctx.rank() == 0) {
        const nvgas::Gva block = table.advanced(3 * 256, 256);
        co_await nvgas::migrate(ctx, block, (block.home(8) + 3) % 8);
      }
    }
    co_await world.coll().barrier(ctx);
    nvgas::free_alloc(ctx, table);
  });
  const auto& sw = dynamic_cast<const nvgas::gas::AgasSw&>(world.gas());
  SwCacheRun run{world.engine().trace_hash(), 0};
  for (int n = 0; n < cfg.machine.nodes; ++n) run.evictions += sw.cache(n).evictions();
  return run;
}

// Exits 1 unless some cache evicted and the hash differs from the same
// program with default-capacity caches.
std::uint64_t world_agas_sw_cache4(std::uint64_t seed) {
  const SwCacheRun small = agas_sw_cache_run(4, seed);
  const SwCacheRun roomy =
      agas_sw_cache_run(nvgas::gas::GasCosts{}.sw_cache_capacity, seed);
  if (small.evictions == 0 || small.hash == roomy.hash) {
    std::fprintf(stderr,
                 "world_agas_sw_cache4: %llu eviction(s), hash %s the "
                 "default-capacity run's\n",
                 static_cast<unsigned long long>(small.evictions),
                 small.hash == roomy.hash ? "equals" : "differs from");
    std::exit(1);
  }
  return small.hash;
}

// Scenario C: a World with the adaptive migration subsystem enabled —
// a skewed access pattern heats blocks homed on rank 0 until the
// balancer migrates them mid-run. Balancer epochs, policy decisions and
// the migrations they issue all land in the trace hash, so any
// nondeterminism in heat bookkeeping or plan ordering flips the hash.
std::uint64_t world_lb_hash(nvgas::GasMode mode, nvgas::lb::PolicyKind policy,
                            std::uint64_t seed) {
  nvgas::Config cfg = nvgas::Config::with_nodes(8, mode);
  cfg.seed = seed;
  cfg.lb.policy = policy;
  cfg.lb.epoch_ns = 20'000;
  cfg.lb.decay_shift = 1;
  cfg.lb.max_moves_per_epoch = 4;
  cfg.lb.max_inflight = 2;
  cfg.lb.min_heat = nvgas::lb::kAccessUnit;
  cfg.lb.benefit_ns_per_access = 50'000;
  nvgas::World world(cfg);
  world.run_spmd([&world](nvgas::Context& ctx) -> nvgas::Fiber {
    const nvgas::Gva table = nvgas::alloc_cyclic(ctx, 8, 512);
    // Every rank hammers the two blocks after its own, so each block's
    // heat is dominated by non-owners and the balancer has work to do.
    for (int round = 0; round < 6; ++round) {
      for (int k = 1; k <= 2; ++k) {
        const nvgas::Gva target =
            table.advanced(((ctx.rank() + k) % 8) * 512, 512);
        (void)co_await nvgas::fetch_add(ctx, target, 1);
        co_await nvgas::memput_value<std::uint64_t>(
            ctx, target.advanced(8, 512),
            static_cast<std::uint64_t>(ctx.rank() * 100 + round));
      }
      co_await ctx.sleep(5'000);
    }
    co_await world.coll().barrier(ctx);
    // Quiesce the balancer before tearing down the allocation: freeing a
    // block with a migration in flight is a protocol violation.
    if (ctx.rank() == 0 && world.balancer() != nullptr) {
      while (world.balancer()->inflight() > 0) co_await ctx.sleep(1'000);
      world.balancer()->set_enabled(false);
    }
    co_await world.coll().barrier(ctx);
    nvgas::free_alloc(ctx, table);
  });
  return world.engine().trace_hash();
}

// Scenario D: the same integration pass over a deliberately unreliable
// fabric. Fault gate draws, drop/dup decisions, retransmission timers
// and recovery traffic all land in the trace hash, so nondeterminism in
// the injector's per-link streams or the reliability layer's timer
// bookkeeping flips the hash even when payloads still arrive intact.
nvgas::sim::FaultPlan probe_drop_plan() {
  nvgas::sim::FaultPlan p;
  nvgas::sim::FaultRule r;
  r.drop = 0.05;
  p.rules.push_back(r);
  p.brownouts.push_back({-1, -1, 30'000, 45'000});
  return p;
}

nvgas::sim::FaultPlan probe_dupdelay_plan() {
  nvgas::sim::FaultPlan p;
  nvgas::sim::FaultRule r;
  r.dup = 0.05;
  r.delay = 0.25;
  r.delay_ns = 3'000;
  p.rules.push_back(r);
  return p;
}

// Scenario F: allocation ids across a free. Each rank fills and reads
// an allocation (moving one block first where the manager can), frees
// it, then allocates again and touches every block of the new one, whose
// id the heap has never handed out before. Ids, placements and every
// manager's per-block state are rebuilt from scratch for the second.
template <nvgas::GasMode Mode>
std::uint64_t realloc_hash(std::uint64_t seed) {
  nvgas::Config cfg = nvgas::Config::with_nodes(8, Mode);
  cfg.seed = seed;
  nvgas::World world(cfg);
  world.run_spmd([&world](nvgas::Context& ctx) -> nvgas::Fiber {
    const int r = ctx.rank();
    const nvgas::Gva first = nvgas::alloc_cyclic(ctx, 8, 256);
    for (int b = 0; b < 8; ++b) {
      co_await nvgas::memput_value<std::uint64_t>(
          ctx, first.advanced(b * 256, 256), static_cast<std::uint64_t>(r * 8 + b));
    }
    if (world.gas().supports_migration()) {
      const nvgas::Gva moved = first.advanced(((r + 1) % 8) * 256, 256);
      co_await nvgas::migrate(ctx, moved, (moved.home(8) + 3) % 8);
    }
    (void)co_await nvgas::memget_value<std::uint64_t>(
        ctx, first.advanced(((r + 1) % 8) * 256, 256));
    co_await world.coll().barrier(ctx);
    nvgas::free_alloc(ctx, first);
    const nvgas::Gva second = nvgas::alloc_cyclic(ctx, 8, 256);
    for (int b = 0; b < 8; ++b) {
      (void)co_await nvgas::fetch_add(ctx, second.advanced(((r + b) % 8) * 256, 256),
                                      static_cast<std::uint64_t>(b + 1));
    }
    co_await world.coll().barrier(ctx);
    nvgas::free_alloc(ctx, second);
  });
  return world.engine().trace_hash();
}

struct Scenario {
  const char* name;
  std::uint64_t (*run)(std::uint64_t seed);
};

template <nvgas::GasMode Mode>
std::uint64_t world(std::uint64_t s) {
  return world_hash(Mode, s);
}

template <nvgas::GasMode Mode, nvgas::lb::PolicyKind Policy>
std::uint64_t world_lb(std::uint64_t s) {
  return world_lb_hash(Mode, Policy, s);
}

template <nvgas::GasMode Mode>
std::uint64_t world_faults_drop(std::uint64_t s) {
  return world_hash(Mode, s, probe_drop_plan());
}

template <nvgas::GasMode Mode>
std::uint64_t world_faults_dupdelay(std::uint64_t s) {
  return world_hash(Mode, s, probe_dupdelay_plan());
}

// Scenario E: the kvstore application end-to-end — Zipf-skewed open-loop
// client traffic, per-bucket locking, TTL timers, hot-set rotation with
// the hysteresis balancer responding. The densest timer/parcel workload
// in the tree, so it is the best canary for event-ordering bugs.
template <nvgas::GasMode Mode>
std::uint64_t kv_hash(std::uint64_t seed) {
  nvgas::apps::kv::KvRunConfig rc;
  rc.mode = Mode;
  rc.nodes = 8;
  rc.policy = nvgas::lb::PolicyKind::kHysteresis;
  rc.kv.buckets = 32;
  rc.client.keyspace = 256;
  rc.client.rate_per_node = 2.0e5;
  rc.client.t_start = 30'000;
  rc.client.duration = 250'000;
  rc.client.t_shift = 160'000;
  rc.client.seed = seed;
  return nvgas::apps::kv::run_kv(rc).trace_hash;
}

constexpr Scenario kScenarios[] = {
    {"engine_wheel", engine_wheel_hash},
    {"world_pgas", world<nvgas::GasMode::kPgas>},
    {"world_agas_sw", world<nvgas::GasMode::kAgasSw>},
    {"world_agas_net", world<nvgas::GasMode::kAgasNet>},
    {"world_agas_net_tlb4", world_agas_net_tlb4},
    {"world_agas_sw_cache4", world_agas_sw_cache4},
    {"lb_pgas_greedy",
     world_lb<nvgas::GasMode::kPgas, nvgas::lb::PolicyKind::kGreedy>},
    {"lb_pgas_hyst",
     world_lb<nvgas::GasMode::kPgas, nvgas::lb::PolicyKind::kHysteresis>},
    {"lb_agas_sw_greedy",
     world_lb<nvgas::GasMode::kAgasSw, nvgas::lb::PolicyKind::kGreedy>},
    {"lb_agas_sw_hyst",
     world_lb<nvgas::GasMode::kAgasSw, nvgas::lb::PolicyKind::kHysteresis>},
    {"lb_agas_net_greedy",
     world_lb<nvgas::GasMode::kAgasNet, nvgas::lb::PolicyKind::kGreedy>},
    {"lb_agas_net_hyst",
     world_lb<nvgas::GasMode::kAgasNet, nvgas::lb::PolicyKind::kHysteresis>},
    {"faults_pgas_drop", world_faults_drop<nvgas::GasMode::kPgas>},
    {"faults_agas_sw_drop", world_faults_drop<nvgas::GasMode::kAgasSw>},
    {"faults_agas_net_drop", world_faults_drop<nvgas::GasMode::kAgasNet>},
    {"faults_pgas_dupdelay", world_faults_dupdelay<nvgas::GasMode::kPgas>},
    {"faults_agas_sw_dupdelay",
     world_faults_dupdelay<nvgas::GasMode::kAgasSw>},
    {"faults_agas_net_dupdelay",
     world_faults_dupdelay<nvgas::GasMode::kAgasNet>},
    {"kvstore_pgas", kv_hash<nvgas::GasMode::kPgas>},
    {"kvstore_agas_sw", kv_hash<nvgas::GasMode::kAgasSw>},
    {"kvstore_agas_net", kv_hash<nvgas::GasMode::kAgasNet>},
    {"realloc_pgas", realloc_hash<nvgas::GasMode::kPgas>},
    {"realloc_agas_sw", realloc_hash<nvgas::GasMode::kAgasSw>},
    {"realloc_agas_net", realloc_hash<nvgas::GasMode::kAgasNet>},
};

}  // namespace

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(opt.get_int("seed", 0x5eed));
  const bool self_check = opt.has("self-check");
  opt.reject_unknown();

  int failures = 0;
  for (const Scenario& s : kScenarios) {
    const std::uint64_t h1 = s.run(seed);
    if (self_check) {
      const std::uint64_t h2 = s.run(seed);
      const bool ok = h1 == h2;
      std::printf("%-16s %s (0x%016llx%s)\n", s.name, ok ? "ok" : "MISMATCH",
                  static_cast<unsigned long long>(h1),
                  ok ? "" : " vs rerun");
      if (!ok) {
        std::fprintf(stderr,
                     "determinism_probe: %s rerun hash 0x%016llx != 0x%016llx\n",
                     s.name, static_cast<unsigned long long>(h2),
                     static_cast<unsigned long long>(h1));
        ++failures;
      }
    } else {
      std::printf("%s_hash=0x%016llx\n", s.name,
                  static_cast<unsigned long long>(h1));
    }
  }
  return failures == 0 ? 0 : 1;
}
