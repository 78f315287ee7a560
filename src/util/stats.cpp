#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace epp::util {

void OnlineStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double SampleSet::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::variance() const noexcept {
  const std::size_t n = samples_.size();
  if (n < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return acc / static_cast<double>(n - 1);
}

double select_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  // Written so that NaN fails the check too.
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile: q outside [0,1]");
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  // Everything after lo_it is >= *lo_it, so the (lo+1)-th order statistic
  // is the smallest of them.
  const double hi = lo_it + 1 == values.end()
                        ? *lo_it
                        : *std::min_element(lo_it + 1, values.end());
  return *lo_it * (1.0 - frac) + hi * frac;
}

double SampleSet::quantile(double q) const {
  std::vector<double> scratch = samples_;
  return select_quantile(scratch, q);
}

double SampleSet::cdf(double x) const {
  if (samples_.empty()) return 0.0;
  const auto at_most = std::count_if(samples_.begin(), samples_.end(),
                                     [x](double s) { return s <= x; });
  return static_cast<double>(at_most) /
         static_cast<double>(samples_.size());
}

double prediction_accuracy_percent(double predicted, double actual) {
  if (actual == 0.0) return predicted == 0.0 ? 100.0 : 0.0;
  const double err = std::abs(predicted - actual) / std::abs(actual);
  return std::max(0.0, 100.0 * (1.0 - err));
}

double prediction_accuracy_percent(const std::vector<double>& predicted,
                                   const std::vector<double>& actual) {
  if (predicted.size() != actual.size())
    throw std::invalid_argument("prediction_accuracy_percent: size mismatch");
  if (predicted.empty()) return 100.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i)
    acc += prediction_accuracy_percent(predicted[i], actual[i]);
  return acc / static_cast<double>(predicted.size());
}

}  // namespace epp::util
