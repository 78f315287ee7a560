#include "core/hybrid_predictor.hpp"

#include <cmath>
#include <vector>

#include "core/errors.hpp"
#include "hydra/relationships.hpp"
#include "util/cancellation.hpp"
#include "util/timer.hpp"

namespace epp::core {

void HybridPredictor::register_server(const ServerArch& server) {
  lqn_.register_server(server);
  buckets_.try_emplace(server.name);
}

const hydra::Relationship1& HybridPredictor::fit_for(
    const std::string& server, double buy_fraction) const {
  const auto table = buckets_.find(server);
  if (table == buckets_.end())
    throw NotCalibratedError("HybridPredictor: unknown server '" + server + "'");
  if (!(buy_fraction >= 0.0 && buy_fraction <= 1.0))
    throw InvalidWorkloadError("HybridPredictor: buy fraction " +
                               std::to_string(buy_fraction) + " not in [0, 1]");
  const long index = std::lround(buy_fraction * 100.0);
  Bucket& bucket = table->second[static_cast<std::size_t>(index)];
  for (int state = bucket.state; state != kFilled; state = bucket.state) {
    if (state == kFilling)
      // epp-lint: ignore(EPP-CONC-004) an atomic wait, not a cv; the loop rereads state
      bucket.state.wait(kFilling);
    else if (bucket.state.compare_exchange_strong(state, kFilling))
      fill(bucket, server, index);
  }
  if (bucket.error) std::rethrow_exception(bucket.error);
  return bucket.fit;
}

void HybridPredictor::fill(Bucket& bucket, const std::string& server,
                           long index) const {
  // A fit is a function of (server, bucket) alone, so its failure is
  // stored and rethrown. A cancellation is the caller's deadline, not the
  // fit's: it empties the bucket again for the next caller.
  const util::Timer timer;
  const double buy = static_cast<double>(index) / 100.0;  // canonical mix
  const auto pseudo_point = [&](double clients) {
    return lqn_.pseudo_point(server, clients, buy, kThinkTimeS);
  };
  try {
    // Gradient m from a light-load LQN solve: X = N / (Z + R_light).
    const double gradient = 1.0 / (kThinkTimeS + pseudo_point(10.0).metric_s);
    // Max throughput from the LQN bottleneck bound locates the knee.
    const double max_tput = lqn_.predict_max_throughput_rps(server, buy);
    const double n_star = max_tput / gradient;
    std::vector<hydra::DataPoint> lower, upper;
    for (const double fraction : kLowerFractions)
      lower.push_back(pseudo_point(fraction * n_star));
    for (const double fraction : kUpperFractions)
      upper.push_back(pseudo_point(fraction * n_star));
    bucket.fit = hydra::fit_relationship1(lower, upper, max_tput, gradient);
  } catch (const util::Cancelled&) {
    bucket.state = kEmpty;
    bucket.state.notify_all();
    throw;
  } catch (...) {
    bucket.error = std::current_exception();
  }
  bucket.build_s = timer.elapsed_seconds();
  bucket.state = kFilled;
  bucket.state.notify_all();
}

Prediction HybridPredictor::predict(const std::string& server,
                                    const WorkloadSpec& workload) const {
  const hydra::Relationship1& rel = fit_for(server, workload.buy_fraction());
  return {rel.predict_metric(workload.total_clients()),
          rel.predict_throughput(workload.total_clients())};
}

double HybridPredictor::predict_max_throughput_rps(const std::string& server,
                                                   double buy_fraction) const {
  return fit_for(server, buy_fraction).max_throughput_rps;
}

bool HybridPredictor::predicts_saturated(const std::string& server,
                                         const WorkloadSpec& workload) const {
  const hydra::Relationship1& rel = fit_for(server, workload.buy_fraction());
  return workload.total_clients() >= rel.clients_at_max_throughput();
}

CapacityResult HybridPredictor::max_clients_for_goal(
    const std::string& server, double goal_s, double buy_fraction,
    double /*think_time_s*/) const {
  CapacityResult result;
  result.prediction_evaluations = 1;  // closed-form once calibrated
  result.max_clients = fit_for(server, buy_fraction).clients_for_metric(goal_s);
  return result;
}

std::size_t HybridPredictor::calibrations() const {
  std::size_t fitted = 0;
  for (const auto& [server, table] : buckets_)
    for (const Bucket& bucket : table)
      fitted += bucket.state == kFilled && !bucket.error;
  return fitted;
}

double HybridPredictor::startup_delay_s(const std::string& server) const {
  const auto table = buckets_.find(server);
  if (table == buckets_.end()) return 0.0;
  double total = 0.0;
  for (const Bucket& bucket : table->second)
    if (bucket.state == kFilled) total += bucket.build_s;
  return total;
}

}  // namespace epp::core
