// Streaming and batch statistics used by the simulator's metric collectors
// and by the accuracy computations in epp::core.
#pragma once

#include <cstddef>
#include <vector>

namespace epp::util {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  /// Half-width of the (approximately) 95% confidence interval on the mean.
  double ci95_halfwidth() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample collector retaining every observation in insertion order;
/// supports exact quantiles. The simulator records one entry per
/// completed request, so memory use is bounded by the number of simulated
/// completions. The const accessors keep no cache: `quantile` selects on
/// a scratch copy and `cdf` scans, so concurrent readers are safe once
/// the writer is done.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const noexcept { return samples_.size(); }
  /// Mean of the samples summed in insertion order.
  double mean() const noexcept;
  double variance() const noexcept;
  /// Exact sample quantile, q in [0, 1], linear interpolation between order
  /// statistics. Returns 0 on an empty set. O(n) on a scratch copy.
  double quantile(double q) const;
  /// Empirical P(X <= x), by a linear scan.
  double cdf(double x) const;
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;
};

/// Exact q-quantile of `values` (q in [0, 1]) with SampleSet::quantile's
/// interpolation, found by selection: reorders `values` and leaves them
/// otherwise intact. Returns 0 on an empty vector.
double select_quantile(std::vector<double>& values, double q);

/// The paper's accuracy measure: 100% minus mean absolute relative error,
/// clamped at 0. `predicted` and `actual` must be the same length.
double prediction_accuracy_percent(const std::vector<double>& predicted,
                                   const std::vector<double>& actual);

/// Accuracy of a single prediction against a single observation.
double prediction_accuracy_percent(double predicted, double actual);

}  // namespace epp::util
