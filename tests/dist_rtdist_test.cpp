#include "dist/rtdist.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace epp::dist {
namespace {

TEST(RtDist, ExponentialCdfAndQuantileInvert) {
  const auto d = ResponseTimeDistribution::exponential(0.2);
  EXPECT_DOUBLE_EQ(d.mean(), 0.2);
  EXPECT_NEAR(d.cdf(0.2), 1.0 - std::exp(-1.0), 1e-12);
  for (double p : {0.1, 0.5, 0.9, 0.99})
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-12) << p;
  EXPECT_DOUBLE_EQ(d.cdf(-1.0), 0.0);
}

TEST(RtDist, ExponentialP90ClosedForm) {
  const auto d = ResponseTimeDistribution::exponential(1.0);
  EXPECT_NEAR(d.quantile(0.9), -std::log(0.1), 1e-12);
}

TEST(RtDist, DoubleExponentialSymmetricAroundLocation) {
  const auto d = ResponseTimeDistribution::double_exponential(2.0, 0.2041);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.5);
  EXPECT_NEAR(d.cdf(2.0 - 0.1) + d.cdf(2.0 + 0.1), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
}

TEST(RtDist, DoubleExponentialQuantileInverts) {
  const auto d = ResponseTimeDistribution::double_exponential(1.5, 0.3);
  for (double p : {0.05, 0.4, 0.5, 0.9, 0.999})
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-12) << p;
}

TEST(RtDist, QuantileRejectsDegenerateP) {
  const auto d = ResponseTimeDistribution::exponential(1.0);
  EXPECT_THROW(d.quantile(0.0), std::invalid_argument);
  EXPECT_THROW(d.quantile(1.0), std::invalid_argument);
  EXPECT_THROW(d.quantile(std::nan("")), std::invalid_argument);
}

TEST(RtDist, FactoriesValidateParameters) {
  EXPECT_THROW(ResponseTimeDistribution::exponential(0.0),
               std::invalid_argument);
  EXPECT_THROW(ResponseTimeDistribution::double_exponential(1.0, 0.0),
               std::invalid_argument);
}

TEST(RtDist, ForMeanPredictionSelectsRegime) {
  const auto pre = for_mean_prediction(0.1, false, 0.2041);
  EXPECT_EQ(pre.regime(), Regime::kPreSaturation);
  const auto post = for_mean_prediction(2.0, true, 0.2041);
  EXPECT_EQ(post.regime(), Regime::kPostSaturation);
  EXPECT_DOUBLE_EQ(post.location(), 2.0);
  EXPECT_DOUBLE_EQ(post.scale(), 0.2041);
}

TEST(RtDist, PredictPercentileMatchesDistribution) {
  EXPECT_NEAR(predict_percentile(0.1, 0.9, false, 0.2),
              -0.1 * std::log(0.1), 1e-12);
  EXPECT_NEAR(predict_percentile(2.0, 0.9, true, 0.2041),
              2.0 - 0.2041 * std::log(0.2), 1e-12);
}

TEST(RtDist, CalibrateScaleRecoversLaplaceB) {
  // Sample a Laplace(loc=1, b=0.25) and recover b by MLE.
  util::Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 200000; ++i) {
    const double u = rng.uniform() - 0.5;
    samples.push_back(1.0 - 0.25 * std::copysign(std::log1p(-2.0 * std::abs(u)), u));
  }
  EXPECT_NEAR(calibrate_scale_b(samples, 1.0), 0.25, 0.005);
}

TEST(RtDist, CalibrateScaleRejectsEmptyOrDegenerate) {
  EXPECT_THROW(calibrate_scale_b({}, 1.0), std::invalid_argument);
  const std::vector<double> constant{1.0, 1.0};
  EXPECT_THROW(calibrate_scale_b(constant, 1.0), std::invalid_argument);
}

TEST(RtDist, ExtrapolatorCalibratesRatioAndOffset) {
  // Pre-saturation samples around mean 0.01 with p90 = 0.018; post around
  // mean 2.0 with p90 = 2.5.
  std::vector<double> pre, post;
  for (int i = 0; i < 1000; ++i) {
    pre.push_back(0.002 + 0.016 * i / 999.0);   // uniform: mean .01, p90 .0164
    post.push_back(1.5 + 1.0 * i / 999.0);      // uniform: mean 2.0, p90 2.4
  }
  const auto ex = dist::PercentileExtrapolator::calibrate(0.9, pre, post);
  EXPECT_NEAR(ex.pre_ratio(), 0.0164 / 0.01, 0.01);
  EXPECT_NEAR(ex.post_offset_s(), 0.4, 0.005);
  EXPECT_NEAR(ex.predict(0.02, false), 0.02 * ex.pre_ratio(), 1e-12);
  EXPECT_NEAR(ex.predict(3.0, true), 3.0 + ex.post_offset_s(), 1e-12);
}

TEST(RtDist, ExtrapolatorRejectsBadInput) {
  const std::vector<double> ok{1.0, 2.0};
  EXPECT_THROW(dist::PercentileExtrapolator::calibrate(0.9, {}, ok),
               std::invalid_argument);
  EXPECT_THROW(dist::PercentileExtrapolator::calibrate(1.5, ok, ok),
               std::invalid_argument);
  EXPECT_THROW(dist::PercentileExtrapolator::calibrate(std::nan(""), ok, ok),
               std::invalid_argument);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(dist::PercentileExtrapolator::calibrate(0.9, zeros, ok),
               std::invalid_argument);
}

TEST(RtDist, PercentileMonotoneInP) {
  for (const bool post : {false, true}) {
    double prev = -1e9;
    for (double p = 0.05; p < 1.0; p += 0.05) {
      const double q = predict_percentile(1.0, p, post, 0.2);
      EXPECT_GT(q, prev);
      prev = q;
    }
  }
}

}  // namespace
}  // namespace epp::dist
