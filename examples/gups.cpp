// GUPS-style random access over the global address space.
//
//   build/examples/gups [--nodes=16] [--mode=agas-net] [--updates=20000]
//                       [--table-mib=4] [--window=16] [--seed=7]
//
// Every rank performs read-modify-write updates (remote fetch-add) on
// random words of a big cyclic table, keeping `window` operations in
// flight (the kernel is apps/workloads/gups.hpp). Reports simulated GUPS
// and the translation-machinery counters, which is where the three
// address-space managers differ.
#include <cstdio>

#include "core/nvgas.hpp"
#include "workloads/gups.hpp"

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = opt.get_int<int>("nodes", 16);
  const std::uint64_t updates_per_rank = opt.get_uint("updates", 20000) /
                                         static_cast<std::uint64_t>(nodes);
  const std::uint64_t table_mib = opt.get_uint("table-mib", 4);
  const std::uint64_t window = opt.get_uint("window", 16);
  const std::uint64_t seed = opt.get_uint("seed", 7);
  const bool report = opt.get_bool("report", false);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  cfg.machine.mem_bytes_per_node = (table_mib + 8) << 20;
  nvgas::World world(cfg);

  const std::uint32_t nblocks = static_cast<std::uint32_t>(table_mib << 20) /
                                nvgas::apps::workloads::kGupsBlockSize;

  std::printf("GUPS: %d nodes, %s, table %llu MiB (%u blocks), %llu updates/rank, window %llu\n",
              nodes, nvgas::gas::to_string(cfg.gas_mode),
              static_cast<unsigned long long>(table_mib), nblocks,
              static_cast<unsigned long long>(updates_per_rank),
              static_cast<unsigned long long>(window));

  nvgas::apps::workloads::run_gups(world, {.blocks = nblocks,
                                           .updates_per_rank = updates_per_rank,
                                           .window = window,
                                           .seed_base = seed * 1315423911ULL});

  const double secs = static_cast<double>(world.now()) / 1e9;
  const double total_updates =
      static_cast<double>(updates_per_rank) * nodes;
  std::printf("\nsimulated time     : %.3f ms\n", secs * 1e3);
  std::printf("update rate        : %s\n",
              nvgas::util::format_rate(total_updates / secs).c_str());
  const auto& c = world.counters();
  std::printf("messages           : %llu\n",
              static_cast<unsigned long long>(c.messages_sent));
  std::printf("nic tlb hit/miss   : %llu / %llu (forwards %llu)\n",
              static_cast<unsigned long long>(c.nic_tlb_hits),
              static_cast<unsigned long long>(c.nic_tlb_misses),
              static_cast<unsigned long long>(c.nic_forwards));
  std::printf("sw cache hit/miss  : %llu / %llu (directory lookups %llu)\n",
              static_cast<unsigned long long>(c.sw_cache_hits),
              static_cast<unsigned long long>(c.sw_cache_misses),
              static_cast<unsigned long long>(c.directory_lookups));
  if (report) {
    std::printf("\n%s", world.report().c_str());
  }
  return 0;
}
