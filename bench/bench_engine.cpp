// Wall-clock throughput of the discrete-event engine itself.
//
// Every simulated experiment is bounded by how many engine events the
// host can execute per second, so this harness tracks that number across
// PRs. It drives identical workloads through the production timing-wheel
// Engine and the frozen seed implementation (sim::ReferenceEngine,
// binary heap + std::function) and reports events/sec plus the ratio:
//
//   * sched_mix    — self-rescheduling timers with a 70/25/5 mix of
//                    short (<1 µs), medium (<16 µs) and far (>64 µs,
//                    past the wheel horizon) delays;
//   * sched_cancel — timeout pattern: every op arms a timer and cancels
//                    it before it fires (the reference engine lacks
//                    cancel, so it tombstones, the pre-wheel idiom);
//   * gups_mix     — GUPS-shaped event chains: NIC gap / wire / DMA
//                    constants with thousands of chains in flight.
//
// Results land in BENCH_engine.json (cwd) for cross-PR tracking, with
// the host core count recorded alongside.
//
// Usage: bench_engine [events_per_workload] [out.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "sim/engine.hpp"
#include "sim/reference_engine.hpp"
#include "util/options.hpp"

namespace nvgas::bench {
namespace {

using sim::Time;

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;

template <typename EngineT>
concept HasCancel = requires(EngineT& e, typename EngineT::TimerId id) {
  { e.cancel(id) };
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- sched_mix ------------------------------------------------------------

template <typename EngineT>
struct MixTimer {
  EngineT* eng;
  std::uint64_t* left;  // events still to schedule
  std::uint64_t state;  // per-timer LCG

  void operator()() {
    if (*left == 0) return;
    --*left;
    state = state * kLcgMul + kLcgAdd;
    const std::uint64_t r = state >> 33;
    Time d;
    const std::uint64_t pct = r % 100;
    if (pct < 70) {
      d = r % 1024;  // short: within a few slots
    } else if (pct < 95) {
      d = 1024 + r % (16 * 1024);  // medium: mid-wheel
    } else {
      d = 65536 + r % (448 * 1024);  // far: overflow heap territory
    }
    eng->after(d, *this);
  }
};

template <typename EngineT>
double sched_mix_eps(std::uint64_t events) {
  EngineT eng;
  std::uint64_t left = events;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 4096; ++i) {
    MixTimer<EngineT> timer{&eng, &left,
                            0x9e3779b97f4a7c15ULL * (std::uint64_t)(i + 1)};
    eng.at(static_cast<Time>(i % 64), timer);
  }
  eng.run();
  const double dt = seconds_since(t0);
  return static_cast<double>(eng.events_executed()) / dt;
}

// --- sched_cancel ---------------------------------------------------------
//
// Each op: arm a "timeout" 2 µs out, then cancel it 1 µs later from the
// completion event (the common NIC-timeout shape: almost every timeout
// is cancelled). The wheel engine uses real cancel; the reference engine
// tombstones a flag and still pays to pop the dead event. Throughput is
// logical ops (arm+cancel pairs) per second.

template <typename EngineT>
struct CancelDriver {
  EngineT* eng;
  std::uint64_t* ops_left;
  std::vector<char>* tombstones;       // reference-engine path
  std::vector<typename sim::Engine::TimerId>* tokens;  // wheel path
  std::uint32_t slot;

  void operator()() {
    if (*ops_left == 0) return;
    --*ops_left;
    if constexpr (HasCancel<EngineT>) {
      (*tokens)[slot] =
          eng->after_cancellable(2048, [] { /* timeout: normally dead */ });
      eng->after(1024, Canceller{eng, tokens, slot});
    } else {
      (*tombstones)[slot] = 0;
      char* flag = &(*tombstones)[slot];
      eng->after(2048, [flag] {
        if (*flag == 0) { /* timeout: normally dead */
        }
      });
      eng->after(1024, [flag] { *flag = 1; });
    }
    eng->after(512, *this);
  }

  struct Canceller {
    EngineT* eng;
    std::vector<typename sim::Engine::TimerId>* tokens;
    std::uint32_t slot;
    void operator()() { (void)eng->cancel((*tokens)[slot]); }
  };
};

template <typename EngineT>
double sched_cancel_ops(std::uint64_t ops) {
  EngineT eng;
  constexpr std::uint32_t kDrivers = 2048;
  std::uint64_t left = ops;
  std::vector<char> tombstones(kDrivers, 0);
  std::vector<sim::Engine::TimerId> tokens(kDrivers);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < kDrivers; ++i) {
    eng.at(static_cast<Time>(i % 128),
           CancelDriver<EngineT>{&eng, &left, &tombstones, &tokens, i});
  }
  eng.run();
  const double dt = seconds_since(t0);
  return static_cast<double>(ops) / dt;
}

// --- gups_mix -------------------------------------------------------------

template <typename EngineT>
struct GupsChain {
  EngineT* eng;
  std::uint64_t* left;
  std::uint8_t stage;

  void operator()() {
    switch (stage) {
      case 0:  // NIC gap charged, go on the wire
        eng->after(40, GupsChain{eng, left, 1});
        break;
      case 1:  // wire hop
        eng->after(500, GupsChain{eng, left, 2});
        break;
      case 2:  // remote DMA
        eng->after(200, GupsChain{eng, left, 3});
        break;
      default:  // completion: issue the next update
        if (*left == 0) return;
        --*left;
        eng->after(100, GupsChain{eng, left, 0});
        break;
    }
  }
};

template <typename EngineT>
double gups_mix_eps(std::uint64_t events) {
  EngineT eng;
  std::uint64_t left = events / 4;  // four events per chain iteration
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 8192; ++i) {
    eng.at(static_cast<Time>(i % 256), GupsChain<EngineT>{&eng, &left, 0});
  }
  eng.run();
  const double dt = seconds_since(t0);
  return static_cast<double>(eng.events_executed()) / dt;
}

struct Row {
  const char* name;
  double wheel;
  double heap;
};

}  // namespace
}  // namespace nvgas::bench

int main(int argc, char** argv) {
  using namespace nvgas::bench;
  const nvgas::util::Options opt(argc, argv);
  const auto& pos = opt.positionals();
  const std::uint64_t events =
      !pos.empty() ? std::strtoull(pos[0].c_str(), nullptr, 10) : 2'000'000ULL;
  const std::string out = pos.size() > 1 ? pos[1] : "BENCH_engine.json";
  if (events == 0) {
    std::fprintf(stderr,
                 "usage: %s [events_per_workload > 0] [out.json]\n"
                 "       (got \"%s\")\n",
                 argv[0], !pos.empty() ? pos[0].c_str() : "");
    return 2;
  }

  std::printf("bench_engine: %llu events per workload\n",
              static_cast<unsigned long long>(events));

  Row rows[] = {
      {"sched_mix", sched_mix_eps<nvgas::sim::Engine>(events),
       sched_mix_eps<nvgas::sim::ReferenceEngine>(events)},
      {"sched_cancel", sched_cancel_ops<nvgas::sim::Engine>(events / 3),
       sched_cancel_ops<nvgas::sim::ReferenceEngine>(events / 3)},
      {"gups_mix", gups_mix_eps<nvgas::sim::Engine>(events),
       gups_mix_eps<nvgas::sim::ReferenceEngine>(events)},
  };

  std::printf("%-14s %14s %14s %9s\n", "workload", "wheel ev/s", "heap ev/s",
              "speedup");
  for (const Row& r : rows) {
    std::printf("%-14s %14.0f %14.0f %8.2fx\n", r.name, r.wheel, r.heap,
                r.wheel / r.heap);
  }

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"engine\",\n  \"events_per_workload\": %llu,\n",
               static_cast<unsigned long long>(events));
  std::fprintf(f, "  \"host_cores\": %u,\n", host_cores);
  std::fprintf(f, "  \"workloads\": {\n");
  const std::size_t n = sizeof(rows) / sizeof(rows[0]);
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(f,
                 "    \"%s\": {\"wheel_events_per_sec\": %.0f, "
                 "\"heap_events_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                 rows[i].name, rows[i].wheel, rows[i].heap,
                 rows[i].wheel / rows[i].heap, i + 1 < n ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
