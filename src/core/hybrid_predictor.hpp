// The hybrid method as a Predictor (paper section 6).
//
// An "advanced" hybrid model: the first time a prediction is needed for a
// (server architecture, workload mix) pair, the layered queuing model
// generates a handful of pseudo-historical data points (2 lower + 2 upper)
// and calibrates a historical relationship-1 fit for that pair — the
// "start-up delay". All subsequent predictions go through the closed-form
// historical equations and are near-instant.
//
// Each whole buy percentage is fitted once, at its canonical mix, so an
// answer depends only on its request, not on which request came first.
//
// Relationship 2 is not used (the LQN generates data for each specific
// architecture, so every architecture is effectively "established"), and
// relationship 3 is itself calibrated from LQN max-throughput predictions.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <exception>
#include <map>
#include <string>

#include "core/lqn_predictor.hpp"
#include "core/predictor.hpp"
#include "hydra/model.hpp"

namespace epp::core {

class HybridPredictor final : public Predictor {
 public:
  explicit HybridPredictor(TradeCalibration calibration) : lqn_(calibration) {}

  /// Call before the first prediction: builds the server's bucket table.
  void register_server(const ServerArch& server);

  std::string name() const override { return "hybrid"; }
  Prediction predict(const std::string& server,
                     const WorkloadSpec& workload) const override;
  double predict_max_throughput_rps(const std::string& server,
                                    double buy_fraction) const override;
  bool predicts_saturated(const std::string& server,
                          const WorkloadSpec& workload,
                          const Prediction& at) const override;
  CapacityResult max_clients_for_goal(const std::string& server,
                                      double goal_s, double buy_fraction = 0.0,
                                      double think_time_s = 7.0) const override;

  /// Wall-clock seconds spent generating pseudo-historical data for this
  /// server across all mixes so far (the paper's ~11 s start-up delay; EPP's
  /// solver is far faster, the *structure* of the cost is what matters).
  double startup_delay_s(const std::string& server) const;
  /// Number of calibrated (server, mix) relationship fits so far.
  std::size_t calibrations() const;

 private:
  /// Pseudo-data-point client positions relative to the max-throughput
  /// load (2 lower + 2 upper, the minimal calibration section 4.2 showed
  /// to be sufficient).
  static constexpr double kLowerFractions[2] = {0.25, 0.60};
  static constexpr double kUpperFractions[2] = {1.25, 1.70};
  /// The think time the pseudo data is generated at (the paper's 7 s).
  static constexpr double kThinkTimeS = 7.0;

  /// One (server, whole-percent buy) fit. One caller moves an empty
  /// bucket to filling and fills it; the others wait on `state`. Storing
  /// kFilled publishes fit, error and build_s.
  enum State : int { kEmpty, kFilling, kFilled };
  struct Bucket {
    std::atomic<int> state{kEmpty};
    hydra::Relationship1 fit;
    std::exception_ptr error;  // a failed fit, rethrown on every call
    double build_s = 0.0;
  };
  using BucketTable = std::array<Bucket, 101>;

  const hydra::Relationship1& fit_for(const std::string& server,
                                      double buy_fraction) const;
  /// Fit `bucket` from LQN pseudo data at its canonical mix index / 100.
  void fill(Bucket& bucket, const std::string& server, long index) const;

  LqnPredictor lqn_;
  // Built by register_server; after that only bucket contents change, each
  // by the one caller that filled it, so predictions take no lock.
  mutable std::map<std::string, BucketTable> buckets_;
};

}  // namespace epp::core
