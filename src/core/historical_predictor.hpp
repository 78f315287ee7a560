// The historical (HYDRA) method as a Predictor (paper section 4).
//
// Calibration: relationship-1 fits from measured data points on
// established servers; relationship 2 then extrapolates the parameters of
// a *new* architecture from its benchmarked max throughput; relationship 3
// scales max throughput with the workload's buy-request percentage.
//
// Predictions are closed-form, hence near-instant (section 8.5), and the
// SLA capacity question is answered by inverting the equations directly
// instead of searching (section 8.2).
#pragma once

#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "hydra/model.hpp"

namespace epp::core {

class HistoricalPredictor final : public Predictor {
 public:
  /// gradient_m: the shared clients->throughput slope (0.14 in the paper;
  /// it depends on the think time, not the server).
  explicit HistoricalPredictor(double gradient_m);

  /// Restore a predictor from fitted models (e.g. a persisted calibration
  /// bundle): the mean-response-time model and its direct-p90 companion.
  /// Both must share one gradient; throws std::invalid_argument otherwise.
  HistoricalPredictor(hydra::HistoricalModel model,
                      hydra::HistoricalModel p90_model);

  // --- calibration -----------------------------------------------------
  void calibrate_established(const std::string& server,
                             const std::vector<hydra::DataPoint>& lower,
                             const std::vector<hydra::DataPoint>& upper,
                             double max_throughput_rps);
  /// New architecture from its benchmarked typical-workload max throughput
  /// (relationship 2 supplies response-time parameters).
  void register_new_server(const std::string& server,
                           double max_throughput_rps);
  /// Relationship-3 calibration from (buy %, max throughput) points on an
  /// established server.
  void calibrate_mix(const std::vector<double>& buy_pct,
                     const std::vector<double>& max_tput);

  /// Section 7.1: the historical method can record percentile metrics as
  /// variables and predict them *directly* (no distribution
  /// extrapolation), avoiding the small accuracy loss of equations 6/7.
  /// Calibrate with data points whose metric is the p90 response time.
  void calibrate_established_p90(const std::string& server,
                                 const std::vector<hydra::DataPoint>& lower,
                                 const std::vector<hydra::DataPoint>& upper,
                                 double max_throughput_rps);
  void register_new_server_p90(const std::string& server,
                               double max_throughput_rps);
  bool has_direct_p90(const std::string& server) const;
  /// Direct p90 prediction; throws std::logic_error if not calibrated.
  double predict_p90_direct(const std::string& server, double clients) const;

  const hydra::HistoricalModel& model() const noexcept { return model_; }
  hydra::HistoricalModel& model() noexcept { return model_; }
  const hydra::HistoricalModel& p90_model() const noexcept {
    return p90_model_;
  }

  // --- predictions -------------------------------------------------------
  std::string name() const override { return "historical"; }
  Prediction predict(const std::string& server,
                     const WorkloadSpec& workload) const override;
  double predict_max_throughput_rps(const std::string& server,
                                    double buy_fraction) const override;
  bool predicts_saturated(const std::string& server,
                          const WorkloadSpec& workload,
                          const Prediction& at) const override;

  /// Closed-form capacity: a single inversion instead of a search.
  CapacityResult max_clients_for_goal(const std::string& server,
                                      double goal_s, double buy_fraction = 0.0,
                                      double think_time_s = 7.0) const override;

 private:
  /// Relationship-1 parameters for the server at a workload mix: the
  /// server's own fit for the typical workload, or a relationship-2
  /// derivation at the relationship-3 max throughput for mixed workloads.
  hydra::Relationship1 rel1_for(const std::string& server,
                                double buy_fraction) const;

  hydra::HistoricalModel model_;
  hydra::HistoricalModel p90_model_;  // same machinery, p90 metric
};

}  // namespace epp::core
