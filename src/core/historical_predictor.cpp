#include "core/historical_predictor.hpp"

#include <stdexcept>
#include <utility>

namespace epp::core {

HistoricalPredictor::HistoricalPredictor(double gradient_m)
    : model_(gradient_m), p90_model_(gradient_m) {}

HistoricalPredictor::HistoricalPredictor(hydra::HistoricalModel model,
                                         hydra::HistoricalModel p90_model)
    : model_(std::move(model)), p90_model_(std::move(p90_model)) {
  if (model_.gradient_m() != p90_model_.gradient_m())
    throw std::invalid_argument(
        "HistoricalPredictor: mean and p90 models disagree on the gradient");
}

void HistoricalPredictor::calibrate_established_p90(
    const std::string& server, const std::vector<hydra::DataPoint>& lower,
    const std::vector<hydra::DataPoint>& upper, double max_throughput_rps) {
  p90_model_.add_established(server, lower, upper, max_throughput_rps);
}

void HistoricalPredictor::register_new_server_p90(const std::string& server,
                                                  double max_throughput_rps) {
  p90_model_.add_new_server(server, max_throughput_rps);
}

bool HistoricalPredictor::has_direct_p90(const std::string& server) const {
  return p90_model_.has_server(server);
}

double HistoricalPredictor::predict_p90_direct(const std::string& server,
                                               double clients) const {
  if (!has_direct_p90(server))
    throw std::logic_error("HistoricalPredictor: p90 model not calibrated for '" +
                           server + "'");
  return p90_model_.predict_metric(server, clients);
}

void HistoricalPredictor::calibrate_established(
    const std::string& server, const std::vector<hydra::DataPoint>& lower,
    const std::vector<hydra::DataPoint>& upper, double max_throughput_rps) {
  model_.add_established(server, lower, upper, max_throughput_rps);
}

void HistoricalPredictor::register_new_server(const std::string& server,
                                              double max_throughput_rps) {
  model_.add_new_server(server, max_throughput_rps);
}

void HistoricalPredictor::calibrate_mix(const std::vector<double>& buy_pct,
                                        const std::vector<double>& max_tput) {
  model_.calibrate_mix(buy_pct, max_tput);
}

hydra::Relationship1 HistoricalPredictor::rel1_for(const std::string& server,
                                                   double buy_fraction) const {
  if (buy_fraction <= 0.0) return model_.server(server);
  const double max_tput =
      model_.predict_max_throughput(server, 100.0 * buy_fraction);
  return model_.cross_server_fit().predict_for(max_tput, model_.gradient_m());
}

Prediction HistoricalPredictor::predict(const std::string& server,
                                        const WorkloadSpec& workload) const {
  const hydra::Relationship1 rel = rel1_for(server, workload.buy_fraction());
  return {rel.predict_metric(workload.total_clients()),
          rel.predict_throughput(workload.total_clients())};
}

double HistoricalPredictor::predict_max_throughput_rps(
    const std::string& server, double buy_fraction) const {
  if (buy_fraction <= 0.0) return model_.server(server).max_throughput_rps;
  return model_.predict_max_throughput(server, 100.0 * buy_fraction);
}

bool HistoricalPredictor::predicts_saturated(
    const std::string& server, const WorkloadSpec& workload) const {
  const hydra::Relationship1 rel = rel1_for(server, workload.buy_fraction());
  return workload.total_clients() >= rel.clients_at_max_throughput();
}

CapacityResult HistoricalPredictor::max_clients_for_goal(
    const std::string& server, double goal_s, double buy_fraction,
    double /*think_time_s*/) const {
  CapacityResult result;
  result.prediction_evaluations = 1;  // a single closed-form inversion
  result.max_clients =
      rel1_for(server, buy_fraction).clients_for_metric(goal_s);
  return result;
}

}  // namespace epp::core
