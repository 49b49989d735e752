#include "src/util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace webcc {
namespace {

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStatTest, SingleValue) {
  RunningStat s;
  s.Add(3.5);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStatTest, KnownMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, MergeEqualsSequential) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10 + i;
    ((i % 2 == 0) ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  RunningStat other;
  other.Merge(a);
  EXPECT_EQ(other.count(), 2);
  EXPECT_DOUBLE_EQ(other.mean(), 1.5);
}

TEST(QuantileTest, EmptyReturnsZero) { EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0); }

TEST(QuantileTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(QuantileTest, Extremes) {
  const std::vector<double> v = {5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 9.0);
}

TEST(QuantileTest, ClampsOutOfRangeQ) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 2.0), 2.0);
}

TEST(QuantileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.25), 2.5);
}

}  // namespace
}  // namespace webcc
