#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace epp::sim {
namespace {

TEST(Metrics, RecordsAfterWarmupOnly) {
  MetricsCollector m(60.0);
  m.record("browse", 30.0, 35.0);   // inside warm-up: dropped
  m.record("browse", 61.0, 61.5);   // counted
  EXPECT_EQ(m.completions("browse"), 1u);
  EXPECT_DOUBLE_EQ(m.mean_response_time("browse"), 0.5);
}

TEST(Metrics, PerClassAndAggregateMeans) {
  MetricsCollector m(0.0);
  m.record("a", 0.0, 1.0);
  m.record("b", 0.0, 3.0);
  EXPECT_DOUBLE_EQ(m.mean_response_time("a"), 1.0);
  EXPECT_DOUBLE_EQ(m.mean_response_time("b"), 3.0);
  EXPECT_DOUBLE_EQ(m.mean_response_time(), 2.0);
}

TEST(Metrics, ThroughputUsesMeasuredWindow) {
  MetricsCollector m(10.0);
  for (int i = 0; i < 20; ++i) m.record("c", 10.0 + i, 10.5 + i);
  EXPECT_DOUBLE_EQ(m.throughput(30.0), 1.0);
  EXPECT_DOUBLE_EQ(m.throughput("c", 30.0), 1.0);
}

TEST(Metrics, ThroughputZeroBeforeWarmupEnds) {
  MetricsCollector m(10.0);
  EXPECT_DOUBLE_EQ(m.throughput(5.0), 0.0);
}

TEST(Metrics, QuantilePerClass) {
  MetricsCollector m(0.0);
  for (int i = 1; i <= 100; ++i)
    m.record("q", 0.0, static_cast<double>(i));
  EXPECT_NEAR(m.response_time_quantile("q", 0.90), 90.1, 0.2);
  EXPECT_NEAR(m.response_time_quantile(0.5), 50.5, 0.2);
}

TEST(Metrics, OverallMeanAndQuantileMatchOneSetBitForBit) {
  MetricsCollector m(0.0);
  util::Rng rng(3, 0x3C1A55);
  const char* const names[] = {"a", "b", "c"};
  std::vector<double> all;  // every sample in completion order
  for (int i = 0; i < 5000; ++i) {
    const double rt = 0.25 * static_cast<double>(rng.below(30)) + rng.uniform();
    m.record(names[rng.below(3)], 1.0, 1.0 + rt);
    all.push_back((1.0 + rt) - 1.0);
  }
  double sum = 0.0;
  for (const double rt : all) sum += rt;
  const double mean = sum / static_cast<double>(all.size());
  std::sort(all.begin(), all.end());
  const double pos = 0.9 * static_cast<double>(all.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const double p90 = all[lo] * (1.0 - frac) + all[lo + 1] * frac;
  const double got_mean = m.mean_response_time();
  const double got_p90 = m.response_time_quantile(0.9);
  EXPECT_EQ(std::memcmp(&got_mean, &mean, sizeof mean), 0);
  EXPECT_EQ(std::memcmp(&got_p90, &p90, sizeof p90), 0);
}

TEST(Metrics, UnknownClassIsEmpty) {
  MetricsCollector m(0.0);
  EXPECT_EQ(m.completions("nope"), 0u);
  EXPECT_DOUBLE_EQ(m.mean_response_time("nope"), 0.0);
  EXPECT_EQ(m.samples("nope").count(), 0u);
}

TEST(Metrics, CompletionBeforeIssueThrows) {
  MetricsCollector m(0.0);
  EXPECT_THROW(m.record("x", 5.0, 4.0), std::invalid_argument);
}

TEST(Metrics, ServiceClassEnumeration) {
  MetricsCollector m(0.0);
  m.record("alpha", 0.0, 1.0);
  m.record("beta", 0.0, 1.0);
  const auto names = m.service_classes();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "beta");
}

}  // namespace
}  // namespace epp::sim
