#include "core/lqn_predictor.hpp"

#include <stdexcept>
#include <string>

#include "core/errors.hpp"

namespace epp::core {

LqnPredictor::LqnPredictor(TradeCalibration calibration,
                           lqn::SolverOptions solver_options)
    : calibration_(calibration), solver_options_(solver_options) {}

void LqnPredictor::register_server(const ServerArch& server) {
  servers_[server.name] = server;
}

const ServerArch& LqnPredictor::server(const std::string& name) const {
  const auto it = servers_.find(name);
  if (it == servers_.end())
    throw NotCalibratedError("LqnPredictor: unknown server '" + name + "'");
  return it->second;
}

lqn::SolveResult LqnPredictor::solve(const std::string& server_name,
                                     const WorkloadSpec& workload) const {
  const auto model =
      build_trade_lqn(calibration_, server(server_name), workload);
  lqn::SolveResult result = lqn::LayeredSolver(solver_options_).solve(model);
  // The solver always reports convergence; the predictor refuses to pass a
  // clamped last iterate off as a prediction.
  if (!result.converged)
    throw SolverDivergedError(
        "LQN solve for '" + server_name + "' did not converge within " +
            std::to_string(result.iterations) + " layer iteration(s)",
        result.iterations, result.mean_response_time_s());
  return result;
}

Prediction LqnPredictor::predict(const std::string& server_name,
                                 const WorkloadSpec& workload) const {
  const lqn::SolveResult result = solve(server_name, workload);
  return {result.mean_response_time_s(), result.total_throughput_rps()};
}

double LqnPredictor::predict_max_throughput_rps(const std::string& server_name,
                                                double buy_fraction) const {
  // Population magnitude does not affect the asymptotic bound, only the
  // class mix does; 1000 clients is an arbitrary reference scale.
  WorkloadSpec mix;
  mix.buy_clients = 1000.0 * buy_fraction;
  mix.browse_clients = 1000.0 - mix.buy_clients;
  const auto model = build_trade_lqn(calibration_, server(server_name), mix);
  return lqn::LayeredSolver(solver_options_).max_throughput_bound_rps(model);
}

hydra::DataPoint LqnPredictor::pseudo_point(const std::string& server_name,
                                            double clients,
                                            double buy_fraction,
                                            double think_time_s) const {
  WorkloadSpec workload;
  workload.buy_clients = clients * buy_fraction;
  workload.browse_clients = clients - workload.buy_clients;
  workload.think_time_s = think_time_s;
  hydra::DataPoint point;
  point.clients = clients;
  point.metric_s = predict_mean_rt_s(server_name, workload);
  point.samples = 0;  // analytic, not sampled
  return point;
}

}  // namespace epp::core
