#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace nvgas::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  // Sample variance of 1..100 = n(n+1)/12 with n=101 → 841.6666...
  EXPECT_NEAR(s.variance(), 841.6666667, 1e-6);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 100.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats whole;
  for (int i = 0; i < 50; ++i) {
    a.add(i * 1.5);
    whole.add(i * 1.5);
  }
  for (int i = 50; i < 120; ++i) {
    b.add(i * 1.5);
    whole.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a;
  a.add(1);
  a.add(2);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Samples, PercentileExactAtEnds) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 10.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.5);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.5);
  EXPECT_DOUBLE_EQ(s.percentile(75), 7.5);
}

TEST(Samples, AddAfterPercentileStillSorted) {
  Samples s;
  s.add(3);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Formatting, Nanoseconds) {
  EXPECT_EQ(format_ns(500), "500 ns");
  EXPECT_EQ(format_ns(1500), "1.50 us");
  EXPECT_EQ(format_ns(2.5e6), "2.50 ms");
  EXPECT_EQ(format_ns(3.25e9), "3.250 s");
}

TEST(Formatting, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(4096), "4 KiB");
  EXPECT_EQ(format_bytes(3ull << 20), "3 MiB");
}

}  // namespace
}  // namespace nvgas::util
