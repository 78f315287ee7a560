// The common prediction interface over the three methods the paper
// compares (historical, layered queuing, hybrid), plus the generic
// SLA-capacity search.
//
// A predictor answers, for a named server architecture and a workload
// (browse/buy client populations with a think time):
//   * the mean response time and the throughput, from one evaluation;
//   * the max throughput at a workload mix;
//   * percentile response times, by extrapolating the mean through the
//     regime distributions of section 7.1;
//   * the maximum number of clients that keeps the mean response time
//     within an SLA goal (resource managers' main question).
//
// The capacity search is a bisection over predict_mean_rt_s by default —
// the paper's point that "in the current layered queuing solver the number
// of clients can only be an input so it is necessary to search" — while
// the historical method overrides it with its closed-form inverse.
#pragma once

#include <string>

#include "core/trade_model.hpp"

namespace epp::core {

/// Result of an SLA capacity search, including how many prediction
/// evaluations it cost (the paper's section 8.5 latency discussion).
struct CapacityResult {
  double max_clients = 0.0;
  int prediction_evaluations = 0;
};

/// The two numbers one evaluation of a method yields.
struct Prediction {
  double mean_rt_s = 0.0;       // workload-mean response time (seconds)
  double throughput_rps = 0.0;  // total request throughput (requests/second)
};

class Predictor {
 public:
  virtual ~Predictor() = default;

  virtual std::string name() const = 0;

  /// Mean response time and throughput for the workload on the server. A
  /// caller that needs both reads them from one call.
  virtual Prediction predict(const std::string& server,
                             const WorkloadSpec& workload) const = 0;

  /// One field of predict(...).
  double predict_mean_rt_s(const std::string& server,
                           const WorkloadSpec& workload) const {
    return predict(server, workload).mean_rt_s;
  }
  double predict_throughput_rps(const std::string& server,
                                const WorkloadSpec& workload) const {
    return predict(server, workload).throughput_rps;
  }

  /// Max throughput for a workload mix (buy_fraction of the clients are
  /// buy users; 0 = the typical all-browse workload).
  virtual double predict_max_throughput_rps(const std::string& server,
                                            double buy_fraction) const = 0;

  /// Whether the workload drives the server past max throughput (selects
  /// the distribution regime of section 7.1). `at` is predict(server,
  /// workload): the default compares its throughput with the max
  /// throughput, so the check costs no second evaluation; methods with a
  /// closed-form knee ignore it.
  virtual bool predicts_saturated(const std::string& server,
                                  const WorkloadSpec& workload,
                                  const Prediction& at) const;

  /// Percentile response time via the regime distributions, from one
  /// predict(); scale_b_s is the calibrated post-saturation
  /// double-exponential scale.
  double predict_percentile_rt_s(const std::string& server,
                                 const WorkloadSpec& workload, double p,
                                 double scale_b_s) const;

  /// Maximum clients (at the given mix) whose predicted mean response time
  /// stays at or below goal_s. Bisection by default; overridden by methods
  /// with an invertible model.
  virtual CapacityResult max_clients_for_goal(const std::string& server,
                                              double goal_s,
                                              double buy_fraction = 0.0,
                                              double think_time_s = 7.0) const;
};

}  // namespace epp::core
