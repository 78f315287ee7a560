#include "core/predictor.hpp"

#include <cmath>
#include <stdexcept>

#include "core/errors.hpp"
#include "dist/rtdist.hpp"

namespace epp::core {
namespace {

WorkloadSpec workload_at(double clients, double buy_fraction, double think) {
  WorkloadSpec w;
  w.buy_clients = clients * buy_fraction;
  w.browse_clients = clients - w.buy_clients;
  w.think_time_s = think;
  return w;
}

}  // namespace

bool Predictor::predicts_saturated(const std::string& server,
                                   const WorkloadSpec& workload,
                                   const Prediction& at) const {
  const double max_tput =
      predict_max_throughput_rps(server, workload.buy_fraction());
  if (max_tput <= 0.0) return false;
  return at.throughput_rps >= 0.985 * max_tput;
}

double Predictor::predict_percentile_rt_s(const std::string& server,
                                          const WorkloadSpec& workload,
                                          double p, double scale_b_s) const {
  const Prediction at = predict(server, workload);
  return dist::predict_percentile(at.mean_rt_s, p,
                                  predicts_saturated(server, workload, at),
                                  scale_b_s);
}

CapacityResult Predictor::max_clients_for_goal(const std::string& server,
                                               double goal_s,
                                               double buy_fraction,
                                               double think_time_s) const {
  if (goal_s <= 0.0)
    throw std::invalid_argument("max_clients_for_goal: non-positive goal");
  CapacityResult result;
  auto rt_at = [&](double clients) {
    ++result.prediction_evaluations;
    try {
      return predict_mean_rt_s(
          server, workload_at(clients, buy_fraction, think_time_s));
    } catch (const SolverDivergedError& diverged) {
      // The bisection only needs to know which side of the goal a probe
      // lands on; a knee probe whose solve settled into a sub-percent
      // limit cycle answers that fine through its clamped estimate.
      if (diverged.clamped_rt_s > 0.0) return diverged.clamped_rt_s;
      throw;
    }
  };
  if (rt_at(1.0) > goal_s) return result;  // not even one client fits
  // Exponential bracketing then bisection (mean RT is monotone in load).
  double lo = 1.0, hi = 2.0;
  while (rt_at(hi) <= goal_s) {
    lo = hi;
    hi *= 2.0;
    if (hi > 1e9)
      throw std::domain_error("max_clients_for_goal: goal never violated");
  }
  while (hi - lo > 1.0) {
    const double mid = std::floor(0.5 * (lo + hi));
    (rt_at(mid) <= goal_s ? lo : hi) = mid;
  }
  result.max_clients = lo;
  return result;
}

}  // namespace epp::core
