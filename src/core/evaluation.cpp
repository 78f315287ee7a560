#include "core/evaluation.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace epp::core {

sim::trade::TestbedConfig sweep_point_config(const sim::trade::ServerSpec& server,
                                             double clients, std::size_t index,
                                             const SweepOptions& options) {
  const auto n = static_cast<std::size_t>(std::llround(clients));
  sim::trade::TestbedConfig config = sim::trade::mixed_workload(
      server, n, options.buy_client_fraction, options.seed + index);
  config.warmup_s = options.warmup_s;
  config.measure_s = options.measure_s;
  return config;
}

std::vector<MeasuredPoint> measured_points(
    const std::vector<sim::TestbedRun>& runs,
    const std::vector<sim::trade::RunResult>& results) {
  std::vector<MeasuredPoint> points;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::size_t clients = 0;
    for (const auto& spec : runs[i].config.classes) clients += spec.clients;
    points.push_back({static_cast<double>(clients), results[i].mean_rt_s,
                      results[i].p90_rt_s, results[i].throughput_rps});
  }
  return points;
}

std::vector<MeasuredPoint> measure_sweep(const sim::trade::ServerSpec& server,
                                         const std::vector<double>& clients,
                                         const SweepOptions& options,
                                         util::ThreadPool* pool) {
  std::vector<sim::TestbedRun> runs;
  for (std::size_t i = 0; i < clients.size(); ++i)
    runs.push_back({sweep_point_config(server, clients[i], i, options)});
  return measured_points(runs, sim::run_testbeds(runs, pool));
}

ReplicatedPoint measure_replicated(const sim::trade::ServerSpec& server,
                                   double clients, std::size_t replications,
                                   const SweepOptions& options,
                                   util::ThreadPool* pool) {
  if (replications == 0)
    throw std::invalid_argument("measure_replicated: zero replications");
  std::vector<sim::TestbedRun> runs;
  for (std::size_t i = 0; i < replications; ++i)  // disjoint seed streams
    runs.push_back({sweep_point_config(server, clients, 0x9E37 * (i + 1), options)});
  const std::vector<sim::trade::RunResult> results = sim::run_testbeds(runs, pool);
  util::OnlineStats rt, p90, x;
  for (const sim::trade::RunResult& r : results) {
    rt.add(r.mean_rt_s);
    p90.add(r.p90_rt_s);
    x.add(r.throughput_rps);
  }
  ReplicatedPoint out;
  out.mean = {clients, rt.mean(), p90.mean(), x.mean()};
  out.rt_ci95_s = rt.ci95_halfwidth();
  out.throughput_ci95_rps = x.ci95_halfwidth();
  out.replications = replications;
  return out;
}

std::vector<hydra::DataPoint> to_data_points(
    const std::vector<MeasuredPoint>& points) {
  std::vector<hydra::DataPoint> out;
  out.reserve(points.size());
  for (const MeasuredPoint& p : points)
    out.push_back({p.clients, p.mean_rt_s, 50});
  return out;
}

std::vector<hydra::DataPoint> to_p90_data_points(
    const std::vector<MeasuredPoint>& points) {
  std::vector<hydra::DataPoint> out;
  out.reserve(points.size());
  for (const MeasuredPoint& p : points)
    out.push_back({p.clients, p.p90_rt_s, 50});
  return out;
}

sim::trade::TestbedConfig lqn_type_config(sim::trade::UserType type,
                                          std::uint64_t seed) {
  // "The per-request type parameters can be calibrated by taking an
  // established server offline and sending a workload consisting only of
  // that request type; the parameters are calculated from the resulting
  // throughput ... and the CPU usage of each server."  We run the browse
  // type and the buy service class (whose request stream aggregates to the
  // model's single buy entry) on AppServF at a load high enough for a
  // clean utilisation signal but below saturation.
  const bool buy = type == sim::trade::UserType::kBuy;
  sim::trade::TestbedConfig config = sim::trade::mixed_workload(
      sim::trade::app_serv_f(), 800, buy ? 1.0 : 0.0, seed + (buy ? 1000 : 0));
  config.warmup_s = 40.0;
  config.measure_s = 200.0;
  return config;
}

RequestTypeParams request_type_params(const sim::trade::RunResult& run) {
  RequestTypeParams params;
  const double x = run.throughput_rps;
  params.app_demand_s = run.app_cpu_utilization / x;
  params.mean_db_calls = run.db_calls_per_request;
  const double calls_per_s = x * run.db_calls_per_request;
  params.db_cpu_per_call_s = run.db_cpu_utilization / calls_per_s;
  params.disk_per_call_s = run.disk_utilization / calls_per_s;
  return params;
}

TradeCalibration calibrate_lqn_from_testbed(std::uint64_t seed,
                                            util::ThreadPool* pool) {
  const std::vector<sim::trade::RunResult> runs = sim::run_testbeds(
      {{lqn_type_config(sim::trade::UserType::kBrowse, seed)},
       {lqn_type_config(sim::trade::UserType::kBuy, seed)}},
      pool);
  return {request_type_params(runs[0]), request_type_params(runs[1])};
}

AccuracySummary accuracy_against(const Predictor& predictor,
                                 const std::string& server,
                                 const std::vector<MeasuredPoint>& measured,
                                 double buy_fraction, double think_time_s) {
  std::vector<double> rt_pred, rt_meas, x_pred, x_meas;
  for (const MeasuredPoint& p : measured) {
    WorkloadSpec workload;
    workload.buy_clients = p.clients * buy_fraction;
    workload.browse_clients = p.clients - workload.buy_clients;
    workload.think_time_s = think_time_s;
    const Prediction prediction = predictor.predict(server, workload);
    rt_pred.push_back(prediction.mean_rt_s);
    rt_meas.push_back(p.mean_rt_s);
    x_pred.push_back(prediction.throughput_rps);
    x_meas.push_back(p.throughput_rps);
  }
  AccuracySummary summary;
  summary.mean_rt_pct = util::prediction_accuracy_percent(rt_pred, rt_meas);
  summary.throughput_pct = util::prediction_accuracy_percent(x_pred, x_meas);
  return summary;
}

}  // namespace epp::core
