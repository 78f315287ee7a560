// The layered queuing method as a Predictor (paper section 5).
//
// Calibration: per-request-type processing times measured on an
// established server (table 2); new architectures are registered with just
// a benchmarked request-processing-speed ratio — "calculating a new
// server's mean request type processing times then involves multiplying
// the mean processing times on an established server by the
// established/new server request processing speed ratio".
//
// Every prediction builds the case-study LQN for the queried (server,
// workload) pair and solves it once; mean response time and throughput
// both come from that one solve. The solve is why this method's
// prediction latency is the highest of the three (section 8.5).
#pragma once

#include <map>
#include <string>

#include "core/predictor.hpp"
#include "core/trade_model.hpp"
#include "hydra/relationships.hpp"
#include "lqn/solver.hpp"

namespace epp::core {

class LqnPredictor final : public Predictor {
 public:
  explicit LqnPredictor(TradeCalibration calibration,
                        lqn::SolverOptions solver_options = {});

  /// Register a server architecture (its speed ratio comes from the rapid
  /// max-throughput benchmark of the system model's second support
  /// service).
  void register_server(const ServerArch& server);
  const ServerArch& server(const std::string& name) const;
  const TradeCalibration& calibration() const noexcept { return calibration_; }

  std::string name() const override { return "layered-queuing"; }
  Prediction predict(const std::string& server,
                     const WorkloadSpec& workload) const override;
  double predict_max_throughput_rps(const std::string& server,
                                    double buy_fraction) const override;

  /// Full solver output (per-class breakdown, utilisations, iterations)
  /// for experiment harnesses.
  lqn::SolveResult solve(const std::string& server,
                         const WorkloadSpec& workload) const;

  /// Generate one pseudo-historical data point: the LQN-predicted mean
  /// response time at a client count. This is the hybrid method's data
  /// source and the generator behind the paper's figure-3 study.
  hydra::DataPoint pseudo_point(const std::string& server, double clients,
                                double buy_fraction = 0.0,
                                double think_time_s = 7.0) const;

 private:
  TradeCalibration calibration_;
  lqn::SolverOptions solver_options_;
  std::map<std::string, ServerArch> servers_;
};

}  // namespace epp::core
