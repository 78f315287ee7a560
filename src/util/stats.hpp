// Streaming and batch statistics used by the simulator's metric collectors
// and by the accuracy computations in epp::core.
#pragma once

#include <cstddef>
#include <span>
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
/// completed request, so a set holds 8 bytes per sample plus at most one
/// partly filled block: samples live in fixed blocks of kBlockSize, so
/// growth allocates one block and never copies a sample. The const
/// accessors keep no cache and copy no samples, so concurrent readers are
/// safe once the writer is done.
class SampleSet {
 public:
  /// Samples per storage block (4 KiB).
  static constexpr std::size_t kBlockSize = 512;

  void add(double x) {
    if (count_ % kBlockSize == 0) {
      blocks_.emplace_back();
      blocks_.back().reserve(kBlockSize);
    }
    blocks_.back().push_back(x);
    ++count_;
  }

  std::size_t count() const noexcept { return count_; }
  /// Mean of the samples summed in insertion order.
  double mean() const noexcept;
  /// Exact sample quantile, q in [0, 1], linear interpolation between order
  /// statistics. Returns 0 on an empty set. See quantile_of.
  double quantile(double q) const;
  /// Call `f(x)` for every sample, in insertion order.
  template <typename F>
  void for_each(F&& f) const {
    for (const std::vector<double>& block : blocks_)
      for (const double x : block) f(x);
  }

 private:
  std::vector<std::vector<double>> blocks_;  // each reserved to kBlockSize
  std::size_t count_ = 0;
};

/// Mean of the union of `sets`, summed set by set in insertion order: the
/// bits of one SampleSet that received the sets' samples in that order.
double mean_of(std::span<const SampleSet* const> sets) noexcept;

/// Exact q-quantile (q in [0, 1]) of the union of `sets`, interpolated
/// linearly between the order statistics at floor(q * (n - 1)) and the
/// next one; 0 when the union is empty. Neither the sets nor their order
/// change, and the samples are not copied: each pass counts them into
/// value bins and keeps the bin that holds both order statistics (or
/// reads them off two neighbouring bins), and only once a bin holds at
/// most a few hundred samples are they copied and selected. O(n) per
/// pass; a pass shrinks the bracket by about the bin count unless the
/// values are heavily clustered. For samples without NaN and without both
/// signs of zero the result has the bits of selecting on a concatenated
/// copy.
double quantile_of(std::span<const SampleSet* const> sets, double q);

/// The paper's accuracy measure: 100% minus mean absolute relative error,
/// clamped at 0. `predicted` and `actual` must be the same length.
double prediction_accuracy_percent(const std::vector<double>& predicted,
                                   const std::vector<double>& actual);

/// Accuracy of a single prediction against a single observation.
double prediction_accuracy_percent(double predicted, double actual);

}  // namespace epp::util
