// Capacity planning: "which server architecture should host this SLA?"
//
// Acquires the calibration bundle through the unified calib pipeline —
// calibrated from the simulated testbed on a cold start, or loaded from a
// persisted `.epp` artifact with --bundle (zero simulator work) — then
// batch-evaluates the full (architecture x method x client-load)
// response-time grid concurrently through the svc::BatchPredictor: the
// paper's section 8.2 resource-management question asked the way a
// planner actually asks it, thousands of predictions per decision. SLA
// capacities for each goal are read off the predicted curves, and the
// second goal reuses the same grid, so it is answered entirely from the
// engine's memoization cache (section 8.5's latency point). Cells that
// fail (a non-converged solve) are left off the curve.
//
// Usage: capacity_planning [--bundle FILE] [--save-bundle FILE]
#include <exception>
#include <iostream>
#include <vector>

#include "calib/bundle.hpp"
#include "calib/predictor_set.hpp"
#include "svc/batch_predictor.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

/// Largest client count on the predicted curve whose mean response time
/// stays within the goal, linearly interpolated between grid points.
double capacity_from_curve(const std::vector<double>& clients,
                           const std::vector<double>& rt_s, double goal_s) {
  double capacity = 0.0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    if (rt_s[i] <= goal_s) {
      capacity = clients[i];
      continue;
    }
    if (i > 0 && rt_s[i] > rt_s[i - 1]) {
      const double t = (goal_s - rt_s[i - 1]) / (rt_s[i] - rt_s[i - 1]);
      if (t > 0.0) capacity = clients[i - 1] + t * (clients[i] - clients[i - 1]);
    }
    break;
  }
  return capacity;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace epp;
  const calib::ArtifactCli artifact = calib::parse_artifact_flags(argc, argv);
  std::cout << "EPP capacity planner: max clients per architecture under an "
               "SLA goal\n\n";
  util::ThreadPool pool;

  // Calibrate once (or warm-start from a persisted artifact); every fitted
  // parameter the three methods need lives in the bundle.
  calib::CalibrationOptions options;
  options.pool = &pool;
  const util::Timer setup_timer;
  const calib::CalibrationBundle bundle =
      calib::acquire_bundle(artifact, options);
  const calib::PredictorSet set = calib::make_predictors(bundle);
  std::cout << (artifact.load_path.empty() ? "calibrated from the testbed in "
                                           : "loaded bundle in ")
            << util::fmt(setup_timer.elapsed_ms(), 1) << " ms\n\n";

  const double m = bundle.gradient_m;
  const svc::Method methods[] = {svc::Method::kHistorical, svc::Method::kLqn,
                                 svc::Method::kHybrid};

  for (const double goal_ms : {300.0, 600.0}) {
    // The full grid for this goal: per architecture, 48 loads spanning
    // 10%-240% of the max-throughput load, for all three methods.
    std::vector<svc::PredictionRequest> grid;
    std::vector<std::vector<double>> loads;
    for (const calib::ServerRecord& server : bundle.servers) {
      const double knee = server.max_throughput_rps / m;
      std::vector<double> points;
      for (double f = 0.10; f <= 2.40; f += 0.05)
        points.push_back(f * knee);
      for (const svc::Method method : methods)
        for (const double clients : points) {
          core::WorkloadSpec w;
          w.browse_clients = clients;
          grid.push_back({method, server.name, w});
        }
      loads.push_back(std::move(points));
    }
    const util::Timer timer;
    const auto predicted = set.batch->predict_batch(grid, &pool);
    const double wall_ms = timer.elapsed_us() / 1e3;

    std::cout << "-- SLA goal: mean response time <= " << goal_ms
              << " ms  (" << grid.size() << " predictions, "
              << util::fmt(wall_ms, 1) << " ms) --\n";
    util::Table table({"architecture", "historical", "lqn", "hybrid"});
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < bundle.servers.size(); ++s) {
      std::vector<std::string> row{bundle.servers[s].name};
      for (std::size_t mi = 0; mi < std::size(methods); ++mi) {
        std::vector<double> clients, rt;
        for (std::size_t i = 0; i < loads[s].size(); ++i) {
          const svc::PredictionResult& cell = predicted[cursor + i];
          if (!cell.ok()) continue;  // e.g. a non-converged solve
          clients.push_back(loads[s][i]);
          rt.push_back(cell.mean_rt_s);
        }
        cursor += loads[s].size();
        row.push_back(
            util::fmt(capacity_from_curve(clients, rt, goal_ms / 1e3), 0));
      }
      table.add_row(row);
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  const svc::CacheStats stats = set.batch->cache_stats();
  std::cout << "cache: " << stats.hits << " hits / " << stats.misses
            << " misses (" << util::fmt(100.0 * stats.hit_ratio(), 1)
            << "% hit ratio) — the 600 ms sweep reused the 300 ms sweep's "
               "grid, so it cost no model evaluations at all.\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "capacity_planning: " << error.what()
            << "\nusage: capacity_planning [--bundle FILE] "
               "[--save-bundle FILE]\n";
  return 1;
}
