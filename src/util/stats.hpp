// Streaming and batch summary statistics for benchmark reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nvgas::util {

// Welford online mean/variance; O(1) memory, numerically stable.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;  // sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Batch sample container with exact percentiles (sorts on demand).
class Samples {
 public:
  void add(double x) { values_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { values_.reserve(n); }
  void clear() { values_.clear(); sorted_ = false; }

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  // Percentile, p in [0, 100], interpolated linearly between the two
  // closest ranks of the sorted samples (rank = p/100 * (count - 1)).
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

// Human-readable helpers for tables.
std::string format_ns(double ns);        // "1.234 us", "987 ns", ...
std::string format_bytes(std::uint64_t bytes);  // "4 KiB", "1 MiB", ...
std::string format_rate(double per_sec);        // "1.23 M/s"

}  // namespace nvgas::util
