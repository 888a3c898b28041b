// The GUPS-style random-access kernel (R-F3): every rank keeps `window`
// remote fetch-adds in flight on random words of a cyclic table. Shared
// by examples/gups, bench_gups and bench_ablation §E, so every table
// that reports a random-access rate measures the same loop.
#pragma once

#include <cstdint>

#include "core/world.hpp"

namespace nvgas::apps::workloads {

// Table blocks are this many bytes; updates hit 8-byte words.
inline constexpr std::uint32_t kGupsBlockSize = 4096;

struct GupsSpec {
  std::uint32_t blocks = 0;  // table size, cyclic over the ranks
  std::uint64_t updates_per_rank = 0;
  std::uint64_t window = 16;  // fetch-adds in flight per rank
  std::uint64_t seed_base = 0;  // rank r draws from util::Rng(seed_base + r)
  sim::Time compute_ns = 0;     // charged after issuing each update
};

// Run the kernel as one SPMD program on `world` (rank 0 allocates the
// table; barriers before and after the updates) and return the simulated
// time at which the world went quiet.
sim::Time run_gups(World& world, const GupsSpec& spec);

}  // namespace nvgas::apps::workloads
