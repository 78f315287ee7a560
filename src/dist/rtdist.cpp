#include "dist/rtdist.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace epp::dist {

ResponseTimeDistribution ResponseTimeDistribution::exponential(double mean_s) {
  if (mean_s <= 0.0)
    throw std::invalid_argument("ResponseTimeDistribution: mean must be > 0");
  return {Regime::kPreSaturation, 0.0, mean_s};
}

ResponseTimeDistribution ResponseTimeDistribution::double_exponential(
    double location_s, double scale_s) {
  if (scale_s <= 0.0)
    throw std::invalid_argument("ResponseTimeDistribution: scale must be > 0");
  return {Regime::kPostSaturation, location_s, scale_s};
}

double ResponseTimeDistribution::cdf(double x) const {
  if (regime_ == Regime::kPreSaturation) {
    if (x <= 0.0) return 0.0;
    return 1.0 - std::exp(-x / scale_);
  }
  if (x < location_) return 0.5 * std::exp((x - location_) / scale_);
  return 1.0 - 0.5 * std::exp(-(x - location_) / scale_);
}

double ResponseTimeDistribution::quantile(double p) const {
  if (!(p > 0.0 && p < 1.0))  // NaN fails this check too
    throw std::invalid_argument("ResponseTimeDistribution: p outside (0,1)");
  if (regime_ == Regime::kPreSaturation) return -scale_ * std::log(1.0 - p);
  if (p < 0.5) return location_ + scale_ * std::log(2.0 * p);
  return location_ - scale_ * std::log(2.0 * (1.0 - p));
}

double ResponseTimeDistribution::mean() const noexcept {
  return regime_ == Regime::kPreSaturation ? scale_ : location_;
}

ResponseTimeDistribution for_mean_prediction(double mean_rt_s,
                                             bool post_saturation,
                                             double scale_b_s) {
  if (post_saturation)
    return ResponseTimeDistribution::double_exponential(mean_rt_s, scale_b_s);
  return ResponseTimeDistribution::exponential(mean_rt_s);
}

double predict_percentile(double mean_rt_s, double p, bool post_saturation,
                          double scale_b_s) {
  return for_mean_prediction(mean_rt_s, post_saturation, scale_b_s).quantile(p);
}

double calibrate_scale_b(std::span<const double> samples_s,
                         double location_s) {
  if (samples_s.empty())
    throw std::invalid_argument("calibrate_scale_b: no samples");
  double abs_dev = 0.0;
  for (double s : samples_s) abs_dev += std::abs(s - location_s);
  const double b = abs_dev / static_cast<double>(samples_s.size());
  if (b <= 0.0)
    throw std::invalid_argument("calibrate_scale_b: degenerate samples");
  return b;
}

namespace {

double sample_stat(std::span<const double> samples, double q, double& mean) {
  if (samples.empty())
    throw std::invalid_argument("PercentileExtrapolator: empty samples");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double s : sorted) sum += s;
  mean = sum / static_cast<double>(sorted.size());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

PercentileExtrapolator PercentileExtrapolator::calibrate(
    double p, std::span<const double> pre_samples_s,
    std::span<const double> post_samples_s) {
  if (!(p > 0.0 && p < 1.0))  // NaN fails this check too
    throw std::invalid_argument("PercentileExtrapolator: p outside (0,1)");
  double pre_mean = 0.0, post_mean = 0.0;
  const double pre_q = sample_stat(pre_samples_s, p, pre_mean);
  const double post_q = sample_stat(post_samples_s, p, post_mean);
  if (pre_mean <= 0.0)
    throw std::invalid_argument("PercentileExtrapolator: degenerate samples");
  return {p, pre_q / pre_mean, post_q - post_mean};
}

double PercentileExtrapolator::predict(double mean_rt_s,
                                       bool post_saturation) const {
  return post_saturation ? mean_rt_s + post_offset_s_ : mean_rt_s * pre_ratio_;
}

}  // namespace epp::dist
