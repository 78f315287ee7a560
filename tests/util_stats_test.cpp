#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace epp::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(OnlineStats, MeanAndVarianceMatchClosedForm) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(SampleSet, QuantileInterpolates) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 25.0);
  EXPECT_NEAR(s.quantile(0.9), 37.0, 1e-12);
}

TEST(SampleSet, QuantileRejectsOutOfRange) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW(s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.quantile(1.1), std::invalid_argument);
  EXPECT_THROW(s.quantile(std::nan("")), std::invalid_argument);
}

// Reference: sort, then interpolate between neighbouring order statistics.
double sorted_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(SampleSet, SelectionQuantileMatchesSortBitForBit) {
  std::vector<double> qs{0.0, 0.5, 0.9, 0.999, 1.0};
  for (int k = 1; k < 100; k += 7) qs.push_back(k / 100.0);
  Rng rng(7, 0x5E1EC7);
  for (const bool ties : {true, false}) {
    for (const std::size_t n : {1u, 2u, 3u, 10000u}) {
      SampleSet s;
      // With ties, few distinct values: most order statistics repeat.
      for (std::size_t i = 0; i < n; ++i)
        s.add(ties ? 0.125 * static_cast<double>(rng.below(40)) + 0.01
                   : rng.uniform());
      for (const double q : qs)
        EXPECT_TRUE(same_bits(s.quantile(q), sorted_quantile(s.samples(), q)))
            << "ties=" << ties << " n=" << n << " q=" << q;
    }
  }
}

TEST(SampleSet, EmpiricalCdf) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf(10.0), 1.0);
}

TEST(SampleSet, MeanVarianceAfterIncrementalAdds) {
  SampleSet s;
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 8.0);
  // quantile after further adds re-sorts correctly
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.0);
}

TEST(Accuracy, PerfectPredictionIs100) {
  EXPECT_DOUBLE_EQ(prediction_accuracy_percent(5.0, 5.0), 100.0);
}

TEST(Accuracy, TenPercentErrorIs90) {
  EXPECT_NEAR(prediction_accuracy_percent(110.0, 100.0), 90.0, 1e-12);
  EXPECT_NEAR(prediction_accuracy_percent(90.0, 100.0), 90.0, 1e-12);
}

TEST(Accuracy, ClampsAtZero) {
  EXPECT_DOUBLE_EQ(prediction_accuracy_percent(300.0, 100.0), 0.0);
}

TEST(Accuracy, VectorIsMeanOfPointAccuracies) {
  const std::vector<double> pred{110.0, 100.0};
  const std::vector<double> actual{100.0, 100.0};
  EXPECT_NEAR(prediction_accuracy_percent(pred, actual), 95.0, 1e-12);
}

TEST(Accuracy, VectorSizeMismatchThrows) {
  EXPECT_THROW(prediction_accuracy_percent(std::vector<double>{1.0},
                                           std::vector<double>{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace epp::util
