#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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
      std::vector<double> added;
      // With ties, few distinct values: most order statistics repeat.
      for (std::size_t i = 0; i < n; ++i) {
        added.push_back(ties ? 0.125 * static_cast<double>(rng.below(40)) + 0.01
                             : rng.uniform());
        s.add(added.back());
      }
      for (const double q : qs)
        EXPECT_TRUE(same_bits(s.quantile(q), sorted_quantile(added, q)))
            << "ties=" << ties << " n=" << n << " q=" << q;
    }
  }
}

// Reference for quantile_of: in-place selection on one concatenated copy,
// as SampleSet::quantile and the collector's overall p90 selected before
// quantile_of.
double select_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double hi = lo_it + 1 == values.end()
                        ? *lo_it
                        : *std::min_element(lo_it + 1, values.end());
  return *lo_it * (1.0 - frac) + hi * frac;
}

// quantile_of over several sets equals selection on their concatenation,
// bit for bit, for ties, all-equal values, single elements, q = 0 and 1,
// heavy tails, ranges no bin width can split and empty sets; and it
// leaves every set in insertion order.
TEST(QuantileOf, MatchesSelectionOnTheConcatenationBitForBit) {
  std::vector<double> qs{0.0, 1.0, 0.5, 0.9, 0.001, 0.999};
  for (int k = 3; k < 100; k += 16) qs.push_back(k / 100.0);
  const std::vector<std::vector<std::size_t>> shapes{
      {1},    {0},          {0, 0},           {0, 1, 0},
      {2, 3}, {10000},      {3000, 0, 7000, 5000}, {1, 20000}};
  struct Source {
    const char* name;
    double (*draw)(Rng&);
  };
  const Source sources[] = {
      {"uniform", [](Rng& r) { return r.uniform(); }},
      {"ties", [](Rng& r) { return 0.125 * static_cast<double>(r.below(40)); }},
      {"all-equal", [](Rng&) { return 3.75; }},
      {"two-adjacent",
       [](Rng& r) { return r.below(2) == 0 ? 1.0 : std::nextafter(1.0, 2.0); }},
      {"subnormal",
       [](Rng& r) {
         return static_cast<double>(r.below(3)) *
                std::numeric_limits<double>::denorm_min();
       }},
      {"exponential", [](Rng& r) { return r.exponential(0.25); }},
      // Pareto with shape 0.7: infinite mean, a range that dwarfs the bulk.
      {"heavy-tail",
       [](Rng& r) { return std::pow(1.0 - r.uniform(), -1.0 / 0.7); }},
      {"outlier",
       [](Rng& r) { return r.below(5000) == 0 ? 1e12 : r.uniform(); }},
      {"overflowing-range",
       [](Rng& r) { return (2.0 * r.uniform() - 1.0) * 1e308; }},
  };
  Rng rng(11, 0x9A11);
  for (const Source& source : sources) {
    for (const auto& shape : shapes) {
      std::vector<SampleSet> sets(shape.size());
      std::vector<std::vector<double>> added(shape.size());
      std::vector<double> all;
      for (std::size_t k = 0; k < shape.size(); ++k)
        for (std::size_t i = 0; i < shape[k]; ++i) {
          added[k].push_back(source.draw(rng));
          sets[k].add(added[k].back());
          all.push_back(added[k].back());
        }
      std::vector<const SampleSet*> ptrs;
      for (const SampleSet& set : sets) ptrs.push_back(&set);
      for (const double q : qs) {
        std::vector<double> copy = all;
        EXPECT_TRUE(same_bits(quantile_of(ptrs, q), select_quantile(copy, q)))
            << source.name << " sets=" << shape.size() << " n=" << all.size()
            << " q=" << q;
      }
      double sum = 0.0;
      for (const double x : all) sum += x;
      const double mean =
          all.empty() ? 0.0 : sum / static_cast<double>(all.size());
      EXPECT_TRUE(same_bits(mean_of(ptrs), mean)) << source.name;
      for (std::size_t k = 0; k < sets.size(); ++k) {
        std::vector<double> seen;
        sets[k].for_each([&seen](double x) { seen.push_back(x); });
        EXPECT_EQ(seen, added[k]) << source.name;
      }
    }
  }
  EXPECT_EQ(quantile_of({}, 0.9), 0.0);
  EXPECT_EQ(mean_of({}), 0.0);
}

TEST(SampleSet, MeanAndQuantileAfterIncrementalAdds) {
  SampleSet s;
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
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
