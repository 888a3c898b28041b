// A distributed key-value store over the global address space, with
// optional locality ("affinity") migration — the data-centric-placement
// use case an active GAS exists for.
//
//   build/examples/kvstore [--nodes=8] [--mode=agas-net] [--buckets=64]
//                          [--ops=4000] [--affinity=true] [--skew=0.8]
//
// The table is an array of bucket blocks; keys hash to buckets; inserts
// claim a slot with a remote fetch-add and write the pair with a
// one-sided put; lookups read the bucket and scan locally. Each rank's
// key stream is skewed toward its "own" key range, but buckets start
// round-robin — the wrong placement. With --affinity, every rank
// periodically migrates its hottest bucket to itself, converting remote
// round trips into local memory accesses. PGAS cannot do this.
#include <cstdio>

#include "core/nvgas.hpp"

namespace {

constexpr std::uint32_t kSlotsPerBucket = 120;
constexpr std::uint32_t kBucketBytes = 8 + kSlotsPerBucket * 16;

std::uint64_t hash_key(std::uint64_t key) {
  nvgas::util::SplitMix64 h(key);
  return h.next();
}

}  // namespace

int main(int argc, char** argv) {
  const nvgas::util::Options opt(argc, argv);
  const int nodes = opt.get_int<int>("nodes", 8);
  const std::uint32_t buckets = opt.get_uint<std::uint32_t>("buckets", 256);
  const std::uint64_t total_ops = opt.get_uint("ops", 6000);
  const bool affinity = opt.get_bool("affinity", true);
  const double skew = opt.get_double("skew", 0.9);

  nvgas::Config cfg =
      nvgas::Config::with_nodes(nodes, nvgas::mode_option(opt));
  opt.reject_unknown();
  nvgas::World world(cfg);
  const bool can_migrate = world.gas().supports_migration();

  std::printf("kvstore: %u buckets x %u slots, %d nodes, %s, affinity=%s, skew=%.2f\n",
              buckets, kSlotsPerBucket, nodes, nvgas::gas::to_string(cfg.gas_mode),
              affinity && can_migrate ? "on" : "off", skew);

  nvgas::Gva table;
  std::uint64_t lookups_hit = 0;
  std::uint64_t lookups_total = 0;
  std::uint64_t overflows = 0;
  // Per-rank per-bucket access counts (host-side stats for the balancer).
  std::vector<std::vector<std::uint64_t>> touch(
      static_cast<std::size_t>(nodes), std::vector<std::uint64_t>(buckets, 0));

  auto bucket_addr = [&](std::uint32_t b) {
    return table.advanced(static_cast<std::int64_t>(b) * kBucketBytes, kBucketBytes);
  };

  world.run_spmd([&](nvgas::Context& ctx) -> nvgas::Fiber {
    if (ctx.rank() == 0) table = nvgas::alloc_cyclic(ctx, buckets, kBucketBytes);
    co_await world.coll().barrier(ctx);

    const std::uint64_t ops =
        total_ops / static_cast<std::uint64_t>(ctx.ranks());
    nvgas::util::Rng rng(808 + static_cast<std::uint64_t>(ctx.rank()));
    constexpr std::uint64_t kHotKeys = 8;  // per-rank working set

    for (std::uint64_t i = 0; i < ops; ++i) {
      // Skewed key choice: with probability `skew` use a key from this
      // rank's own hot set; otherwise a random foreign key.
      std::uint64_t key;
      if (rng.uniform() < skew) {
        key = (static_cast<std::uint64_t>(ctx.rank()) << 32) |
              (1 + rng.below(kHotKeys));
      } else {
        const auto peer = rng.below(static_cast<std::uint64_t>(ctx.ranks()));
        key = (peer << 32) | (1 + rng.below(kHotKeys));
      }
      const auto b = static_cast<std::uint32_t>(hash_key(key) % buckets);
      ++touch[static_cast<std::size_t>(ctx.rank())][b];
      const nvgas::Gva bucket = bucket_addr(b);

      if (rng.chance(0.5)) {
        // Insert: claim a slot, write {key, value}.
        const auto slot = co_await nvgas::fetch_add(ctx, bucket, 1);
        if (slot >= kSlotsPerBucket) {
          ++overflows;
          continue;
        }
        struct Pair {
          std::uint64_t key;
          std::uint64_t value;
        } pair{key, key * 3 + 1};
        co_await nvgas::memput_value<Pair>(
            ctx, bucket.advanced(8 + static_cast<std::int64_t>(slot) * 16,
                                 kBucketBytes),
            pair);
      } else {
        // Lookup: read the bucket header + slots, scan locally.
        const auto raw = co_await nvgas::memget(ctx, bucket, kBucketBytes);
        auto r = nvgas::util::Buffer::Reader(
            std::span<const std::byte>(raw.data(), raw.size()));
        const auto count =
            std::min<std::uint64_t>(r.get<std::uint64_t>(), kSlotsPerBucket);
        ctx.charge(count * 2);  // scan cost
        bool found = false;
        std::uint64_t expect = 0;
        for (std::uint64_t s = 0; s < count; ++s) {
          const auto k = r.get<std::uint64_t>();
          const auto v = r.get<std::uint64_t>();
          if (k == key) {
            found = true;
            expect = v;
          }
        }
        ++lookups_total;
        if (found) {
          ++lookups_hit;
          NVGAS_CHECK_MSG(expect == key * 3 + 1, "kvstore value corruption");
        }
      }

      // Affinity repair: every 32 ops, pull my hottest remote bucket home.
      if (affinity && can_migrate && (i & 31) == 31) {
        auto& mine = touch[static_cast<std::size_t>(ctx.rank())];
        std::uint32_t hot = buckets;
        std::uint64_t hot_count = 0;
        for (std::uint32_t bb = 0; bb < buckets; ++bb) {
          if (mine[bb] > hot_count &&
              world.gas().owner_of(bucket_addr(bb)).first != ctx.rank()) {
            hot = bb;
            hot_count = mine[bb];
          }
        }
        if (hot != buckets) {
          co_await nvgas::migrate(ctx, bucket_addr(hot), ctx.rank());
        }
      }
    }
  });

  // How local did the table end up?
  std::uint64_t local_weight = 0;
  std::uint64_t total_weight = 0;
  for (std::uint32_t b = 0; b < buckets; ++b) {
    const int owner = world.gas().owner_of(bucket_addr(b)).first;
    for (int r = 0; r < nodes; ++r) {
      total_weight += touch[static_cast<std::size_t>(r)][b];
      if (r == owner) local_weight += touch[static_cast<std::size_t>(r)][b];
    }
  }

  const double secs = static_cast<double>(world.now()) / 1e9;
  std::printf("\nsimulated time      : %.3f ms\n", secs * 1e3);
  std::printf("op rate             : %s\n",
              nvgas::util::format_rate(static_cast<double>(total_ops) / secs).c_str());
  std::printf("lookup hit rate     : %.1f%% (%llu/%llu)\n",
              lookups_total ? 100.0 * static_cast<double>(lookups_hit) /
                                  static_cast<double>(lookups_total)
                            : 0.0,
              static_cast<unsigned long long>(lookups_hit),
              static_cast<unsigned long long>(lookups_total));
  std::printf("bucket overflows    : %llu\n",
              static_cast<unsigned long long>(overflows));
  std::printf("access locality     : %.1f%% of touches owner-local\n",
              100.0 * static_cast<double>(local_weight) /
                  static_cast<double>(std::max<std::uint64_t>(1, total_weight)));
  std::printf("migrations          : %llu\n",
              static_cast<unsigned long long>(world.counters().migrations));
  return 0;
}
