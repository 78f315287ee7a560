// Measurement collection for simulation runs.
//
// Mirrors what the paper's JMeter workload generators record: per-service-
// class response-time samples and completion counts, taken after a warm-up
// period ("a 1 minute warm-up period" in section 4.2).
//
// Each response time is stored once, in its class's SampleSet. The
// overall mean comes from a running sum added in completion order, so it
// is bit-identical to the mean of one set holding every sample; the
// overall quantile selects over a scratch concatenation of the classes,
// which holds the same multiset and so the same order statistics.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace epp::sim {

class MetricsCollector {
 public:
  explicit MetricsCollector(double warmup_time = 0.0)
      : warmup_time_(warmup_time) {}

  double warmup() const noexcept { return warmup_time_; }

  /// Record a completed request for `service_class`. Samples whose issue
  /// time falls inside the warm-up window are discarded.
  void record(const std::string& service_class, double issue_time,
              double completion_time);

  /// Pre-register a service class and get a dense handle for the
  /// lookup-free record path below — the per-completion hot path of the
  /// SoA testbed resolves its class name exactly once, up front.
  std::size_t class_handle(const std::string& service_class);
  void record(std::size_t handle, double issue_time, double completion_time);

  std::size_t completions(const std::string& service_class) const;
  std::size_t total_completions() const noexcept { return total_completions_; }

  /// Mean response time in seconds for one class, or across all classes.
  double mean_response_time(const std::string& service_class) const;
  double mean_response_time() const;
  /// Exact q-quantile of recorded response times (q in [0,1]), selected
  /// on a scratch copy in linear time.
  double response_time_quantile(const std::string& service_class,
                                double q) const;
  double response_time_quantile(double q) const;

  /// Completions per second of measured (post-warm-up) time.
  double throughput(double now) const;
  double throughput(const std::string& service_class, double now) const;

  const util::SampleSet& samples(const std::string& service_class) const;
  std::vector<std::string> service_classes() const;

 private:
  double warmup_time_;
  std::map<std::string, util::SampleSet> per_class_;  // node-stable
  std::vector<util::SampleSet*> handles_;
  std::size_t total_completions_ = 0;
  double total_rt_s_ = 0.0;  // summed in completion order
};

}  // namespace epp::sim
