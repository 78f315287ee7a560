#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
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

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Value bins per narrowing pass of quantile_of.
constexpr std::size_t kBins = 256;
/// quantile_of copies the bracketed samples once at most this many remain.
constexpr std::size_t kMaxScratch = 256;

}  // namespace

double mean_of(std::span<const SampleSet* const> sets) noexcept {
  std::size_t n = 0;
  double sum = 0.0;
  for (const SampleSet* set : sets) {
    n += set->count();
    set->for_each([&sum](double x) { sum += x; });
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double quantile_of(std::span<const SampleSet* const> sets, double q) {
  std::size_t n = 0;
  for (const SampleSet* set : sets) n += set->count();
  if (n == 0) return 0.0;
  // Written so that NaN fails the check too.
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("quantile: q outside [0,1]");
  const double pos = q * static_cast<double>(n - 1);
  auto rank = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(rank);
  const bool has_next = rank + 1 < n;  // else the next one is rank itself
  const auto each = [sets](auto&& f) {
    for (const SampleSet* set : sets) set->for_each(f);
  };

  // The bracket [lo, hi] holds `inside` samples, and order statistics
  // `rank` and `rank` + 1 (if any), counted from its smallest sample,
  // among them.
  double lo = kInf, hi = -kInf;
  each([&](double x) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  });
  std::size_t inside = n;
  while (inside > kMaxScratch && lo < hi) {
    // Bin the bracket by value. The bin index is monotone in x, so the
    // bins split it into ranges of increasing value, the first holding lo
    // and the last hi.
    const double width = hi - lo;
    if (!(width < kInf)) break;  // the range overflows a double
    std::array<std::size_t, kBins> counts{};
    std::array<double, kBins> bin_lo, bin_hi;
    bin_lo.fill(kInf);
    bin_hi.fill(-kInf);
    each([&](double x) {
      if (x < lo || x > hi) return;
      const double offset = (x - lo) / width * static_cast<double>(kBins);
      const std::size_t b =
          std::min(kBins - 1, static_cast<std::size_t>(offset));
      ++counts[b];
      bin_lo[b] = std::min(bin_lo[b], x);
      bin_hi[b] = std::max(bin_hi[b], x);
    });
    std::size_t first = 0;  // the bin of order statistic rank
    while (rank >= counts[first]) rank -= counts[first++];
    if (has_next && rank + 1 == counts[first]) {
      // rank is its bin's largest sample and rank + 1 the smallest of the
      // next non-empty bin.
      std::size_t next = first + 1;
      while (counts[next] == 0) ++next;
      return bin_hi[first] * (1.0 - frac) + bin_lo[next] * frac;
    }
    inside = counts[first];
    lo = bin_lo[first];
    hi = bin_hi[first];
  }
  if (lo == hi) return lo * (1.0 - frac) + lo * frac;
  std::vector<double> scratch;
  scratch.reserve(inside);
  each([&](double x) {
    if (x >= lo && x <= hi) scratch.push_back(x);
  });
  const auto at = scratch.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(scratch.begin(), at, scratch.end());
  // Everything after `at` is >= *at, so the next order statistic is the
  // smallest of them.
  const double next = has_next ? *std::min_element(at + 1, scratch.end()) : *at;
  return *at * (1.0 - frac) + next * frac;
}

double SampleSet::mean() const noexcept {
  const SampleSet* self = this;
  return mean_of({&self, 1});
}

double SampleSet::variance() const noexcept {
  if (count_ < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for_each([&](double s) { acc += (s - m) * (s - m); });
  return acc / static_cast<double>(count_ - 1);
}

double SampleSet::quantile(double q) const {
  const SampleSet* self = this;
  return quantile_of({&self, 1}, q);
}

double SampleSet::cdf(double x) const {
  if (count_ == 0) return 0.0;
  std::size_t at_most = 0;
  for_each([&](double s) { at_most += s <= x ? 1 : 0; });
  return static_cast<double>(at_most) / static_cast<double>(count_);
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
