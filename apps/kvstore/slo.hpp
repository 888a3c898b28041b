// Served-latency SLO accounting for the kvstore (docs/KVSTORE.md §SLO).
//
// LatencyHistogram is a fixed-bucket log2 histogram with 16 linear
// sub-buckets per power of two (HDR-style, ~6% relative quantile error),
// all-integer and deterministic: the same completion stream produces the
// same p50/p99/p999 on every host, thread count, and process. SloTracker
// adds the count of responses served within the SLO target.
#pragma once

#include <array>
#include <cstdint>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace nvgas::apps::kv {

class LatencyHistogram {
 public:
  // Values 0..15 are exact; above that, value v with highest set bit m
  // lands in one of 16 linear sub-buckets of [2^m, 2^(m+1)).
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSub = 1u << kSubBits;  // 16
  static constexpr std::uint32_t kBuckets = kSub * (64 - kSubBits + 1);

  static constexpr std::uint32_t bucket_index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::uint32_t>(v);
    const auto m = static_cast<std::uint32_t>(63 - __builtin_clzll(v));
    const auto sub =
        static_cast<std::uint32_t>((v >> (m - kSubBits)) & (kSub - 1));
    return (m - kSubBits + 1) * kSub + sub;
  }

  // Inclusive upper bound of a bucket: every recorded value quantizes to
  // the upper edge of its bucket, so reported quantiles never understate
  // the latency a client saw.
  static constexpr std::uint64_t bucket_upper(std::uint32_t idx) {
    if (idx < kSub) return idx;
    const std::uint32_t m = idx / kSub + kSubBits - 1;
    const std::uint32_t sub = idx % kSub;
    const std::uint64_t lo =
        (std::uint64_t{1} << m) + (std::uint64_t{sub} << (m - kSubBits));
    return lo + (std::uint64_t{1} << (m - kSubBits)) - 1;
  }

  void record(std::uint64_t v) {
    counts_[bucket_index(v)]++;
    ++total_;
    sum_ += v;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }

  // Quantile by bucket walk: the value bound below which at least
  // ceil(p * total) samples fall. Deterministic integer math; p in
  // [0, 1]. Returns 0 on an empty histogram.
  [[nodiscard]] std::uint64_t percentile(double p) const {
    if (total_ == 0) return 0;
    NVGAS_CHECK(p >= 0.0 && p <= 1.0);
    auto rank = static_cast<std::uint64_t>(p * static_cast<double>(total_));
    if (rank * 1.0 < p * static_cast<double>(total_)) ++rank;  // ceil
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return bucket_upper(i);
    }
    return bucket_upper(kBuckets - 1);
  }

  void merge(const LatencyHistogram& o) {
    for (std::uint32_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
    sum_ += o.sum_;
  }

  void reset() {
    counts_.fill(0);
    total_ = 0;
    sum_ = 0;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
};

// Aggregated quantiles for one op kind.
struct OpLatency {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t mean = 0;
};

struct SloReport {
  OpLatency put;
  OpLatency get;
  OpLatency del;
  std::uint64_t completed = 0;      // responses received
  std::uint64_t within_slo = 0;     // responses with latency <= target
  double goodput_ops_per_sec = 0;   // within-SLO completions / wall span

  // Share of responses served within the target (what nvbench reports
  // as sim_goodput_frac); 0 when nothing completed.
  [[nodiscard]] double within_slo_frac() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(within_slo) /
                                static_cast<double>(completed);
  }
};

// One per edge node; merged host-side after the run.
class SloTracker {
 public:
  explicit SloTracker(sim::Time slo_target_ns) : slo_target_(slo_target_ns) {}

  void record(std::uint8_t op, sim::Time t_complete, sim::Time latency_ns);

  void merge(const SloTracker& o);

  [[nodiscard]] SloReport report() const;

  [[nodiscard]] const LatencyHistogram& hist(std::uint8_t op) const;

 private:
  sim::Time slo_target_;
  LatencyHistogram put_;
  LatencyHistogram get_;
  LatencyHistogram del_;
  std::uint64_t completed_ = 0;
  std::uint64_t within_slo_ = 0;
  sim::Time first_complete_ = 0;
  sim::Time last_complete_ = 0;
};

}  // namespace nvgas::apps::kv
