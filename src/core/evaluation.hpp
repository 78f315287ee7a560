// Experiment harness shared by the bench binaries and examples: measured
// load sweeps on the simulated testbed (run in parallel on a thread pool),
// the paper's calibration procedures, and the accuracy metric.
#pragma once

#include <cstdint>
#include <vector>

#include "core/predictor.hpp"
#include "core/trade_model.hpp"
#include "hydra/relationships.hpp"
#include "sim/replicate.hpp"
#include "sim/trade/testbed.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace epp::core {

/// One measured load point from the testbed ("measured" = simulator, the
/// substitution for the paper's WebSphere deployment; see DESIGN.md).
struct MeasuredPoint {
  double clients = 0.0;
  double mean_rt_s = 0.0;
  double p90_rt_s = 0.0;
  double throughput_rps = 0.0;
};

struct SweepOptions {
  double buy_client_fraction = 0.0;
  double warmup_s = 40.0;
  double measure_s = 160.0;
  std::uint64_t seed = util::Rng::kDefaultSeed;
};

/// The run behind one sweep point: `clients` rounded to the nearest
/// integer, seeded options.seed + index (measure_sweep passes the point's
/// position in the sweep).
sim::trade::TestbedConfig sweep_point_config(const sim::trade::ServerSpec& server,
                                             double clients, std::size_t index,
                                             const SweepOptions& options = {});

/// Each run's measurement, at its configured client count.
std::vector<MeasuredPoint> measured_points(
    const std::vector<sim::TestbedRun>& runs,
    const std::vector<sim::trade::RunResult>& results);

/// Measure the testbed at each client count, one independent simulation
/// per point, fanned out on `pool` (sequential when pool is null).
std::vector<MeasuredPoint> measure_sweep(const sim::trade::ServerSpec& server,
                                         const std::vector<double>& clients,
                                         const SweepOptions& options = {},
                                         util::ThreadPool* pool = nullptr);

/// One load point measured over `replications` independent simulations
/// (distinct RNG streams), fanned out on `pool`. Returns the across-
/// replication mean and the 95% confidence half-width of the mean
/// response time — the measurement-noise floor for accuracy claims.
struct ReplicatedPoint {
  MeasuredPoint mean;
  double rt_ci95_s = 0.0;
  double throughput_ci95_rps = 0.0;
  std::size_t replications = 0;
};
ReplicatedPoint measure_replicated(const sim::trade::ServerSpec& server,
                                   double clients, std::size_t replications,
                                   const SweepOptions& options = {},
                                   util::ThreadPool* pool = nullptr);

/// Convert measurements to HYDRA data points (ns samples are implicit in
/// the measurement window).
std::vector<hydra::DataPoint> to_data_points(
    const std::vector<MeasuredPoint>& points);

/// Same, but carrying the p90 response time as the metric — feeds the
/// historical method's *direct* percentile model (section 7.1).
std::vector<hydra::DataPoint> to_p90_data_points(
    const std::vector<MeasuredPoint>& points);

/// The layered queuing method's calibration procedure (section 5): run
/// single-request-type workloads on the established server and derive the
/// per-request-type processing times from throughput and CPU usage.
/// lqn_type_config is the run for one type (browse seeded `seed`, buy
/// `seed + 1000`); request_type_params derives that type's parameters
/// from its result.
sim::trade::TestbedConfig lqn_type_config(sim::trade::UserType type,
                                          std::uint64_t seed);
RequestTypeParams request_type_params(const sim::trade::RunResult& run);
TradeCalibration calibrate_lqn_from_testbed(
    std::uint64_t seed = util::Rng::kDefaultSeed,
    util::ThreadPool* pool = nullptr);

/// Accuracy of a predictor against measured points (the paper's accuracy
/// percentage: 100% minus mean absolute relative error).
struct AccuracySummary {
  double mean_rt_pct = 0.0;
  double throughput_pct = 0.0;
};
AccuracySummary accuracy_against(const Predictor& predictor,
                                 const std::string& server,
                                 const std::vector<MeasuredPoint>& measured,
                                 double buy_fraction = 0.0,
                                 double think_time_s = 7.0);

}  // namespace epp::core
