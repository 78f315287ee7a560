// Micro-benchmark: what the fault-tolerant serving layer costs on the
// path that matters — healthy requests with no deadline, no batch budget
// and no fault injection. The ResilientPredictor's contract is that this
// fast path performs no clock reads and no allocation beyond the wrapped
// engine, keeping the overhead under 5% even on the cheapest possible
// request (an all-cache-hit historical lookup, the adversarial case; on
// a real LQN solve the wrapper cost vanishes into the solver time).
//
// Pairs to compare:
//   BM_HotHit_Plain        vs BM_HotHit_Resilient        (headline, <5%)
//   BM_ColdGrid_Plain      vs BM_ColdGrid_Resilient      (fresh caches)
//   BM_HotHit_Resilient    vs BM_HotHit_ResilientDeadline (cost of arming
//                                                          a deadline)
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/historical_predictor.hpp"
#include "core/hybrid_predictor.hpp"
#include "core/lqn_predictor.hpp"
#include "svc/batch_predictor.hpp"
#include "svc/resilient.hpp"

namespace {

using namespace epp;

core::TradeCalibration calibration() {
  core::TradeCalibration cal;
  cal.browse = {0.005376, 0.00083, 0.00040, 1.14};
  cal.buy = {0.010455, 0.00161, 0.00050, 2.0};
  return cal;
}

/// Simulator-free predictor fixture (same construction as the svc test
/// suites): LQN from the paper's table-2 constants, historical fitted
/// from LQN pseudo data.
struct Predictors {
  static constexpr double kGradient = 0.14;
  core::LqnPredictor lqn{calibration()};
  core::HybridPredictor hybrid{calibration()};
  core::HistoricalPredictor historical{kGradient};

  Predictors() {
    for (const auto& arch :
         {core::arch_s(), core::arch_f(), core::arch_vf()}) {
      lqn.register_server(arch);
      hybrid.register_server(arch);
    }
    for (const char* name : {"AppServF", "AppServVF"}) {
      const double max_tput = lqn.predict_max_throughput_rps(name, 0.0);
      const double n_star = max_tput / kGradient;
      const std::vector<hydra::DataPoint> lower{
          lqn.pseudo_point(name, 0.25 * n_star),
          lqn.pseudo_point(name, 0.60 * n_star)};
      const std::vector<hydra::DataPoint> upper{
          lqn.pseudo_point(name, 1.25 * n_star),
          lqn.pseudo_point(name, 1.70 * n_star)};
      historical.calibrate_established(name, lower, upper, max_tput);
    }
    historical.register_new_server(
        "AppServS", lqn.predict_max_throughput_rps("AppServS", 0.0));
  }
};

Predictors& predictors() {
  static Predictors p;
  return p;
}

std::unique_ptr<svc::BatchPredictor> make_engine() {
  Predictors& p = predictors();
  return std::make_unique<svc::BatchPredictor>(&p.historical, &p.lqn,
                                               &p.hybrid);
}

svc::PredictionRequest hot_request() {
  core::WorkloadSpec workload;
  workload.browse_clients = 900.0;
  return {svc::Method::kHistorical, "AppServF", workload};
}

/// Historical-only grid of distinct workloads: cold evaluations are
/// cheap, so the per-request serving overhead is visible, not drowned.
std::vector<svc::PredictionRequest> cold_grid() {
  std::vector<svc::PredictionRequest> grid;
  for (const char* server : {"AppServF", "AppServVF", "AppServS"})
    for (double clients = 50.0; clients <= 2450.0; clients += 25.0) {
      core::WorkloadSpec workload;
      workload.browse_clients = clients;
      grid.push_back({svc::Method::kHistorical, server, workload});
    }
  return grid;
}

// --- hot path: one all-cache-hit request per iteration ---------------------

void BM_HotHit_Plain(benchmark::State& state) {
  const auto engine = make_engine();
  const svc::PredictionRequest request = hot_request();
  benchmark::DoNotOptimize(engine->predict(request));  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->predict(request));
  }
}
BENCHMARK(BM_HotHit_Plain);

void BM_HotHit_Resilient(benchmark::State& state) {
  const auto engine = make_engine();
  const svc::ResilientPredictor resilient(*engine);
  const svc::PredictionRequest request = hot_request();
  benchmark::DoNotOptimize(resilient.predict(request));
  for (auto _ : state) {
    benchmark::DoNotOptimize(resilient.predict(request));
  }
}
BENCHMARK(BM_HotHit_Resilient);

void BM_HotHit_ResilientDeadline(benchmark::State& state) {
  // Arming a deadline buys clock reads and a cancellation-token install;
  // measured separately so the fast path stays honest.
  const auto engine = make_engine();
  svc::ResilienceOptions options;
  options.deadline_s = 1.0;
  const svc::ResilientPredictor resilient(*engine, options);
  const svc::PredictionRequest request = hot_request();
  benchmark::DoNotOptimize(resilient.predict(request));
  for (auto _ : state) {
    benchmark::DoNotOptimize(resilient.predict(request));
  }
}
BENCHMARK(BM_HotHit_ResilientDeadline);

/// LQN requests do real solver work per evaluation — the representative
/// serving workload, where the wrapper's fixed cost should disappear.
std::vector<svc::PredictionRequest> lqn_grid() {
  std::vector<svc::PredictionRequest> grid;
  for (double clients = 100.0; clients <= 1100.0; clients += 40.0) {
    core::WorkloadSpec workload;
    workload.browse_clients = clients;
    grid.push_back({svc::Method::kLqn, "AppServF", workload});
  }
  return grid;
}

// --- cold path: a fresh engine evaluating the whole grid -------------------

void BM_ColdGrid_Plain(benchmark::State& state) {
  const std::vector<svc::PredictionRequest> grid = cold_grid();
  for (auto _ : state) {
    const auto engine = make_engine();
    benchmark::DoNotOptimize(engine->predict_batch(grid, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_ColdGrid_Plain);

void BM_ColdGrid_Resilient(benchmark::State& state) {
  const std::vector<svc::PredictionRequest> grid = cold_grid();
  for (auto _ : state) {
    const auto engine = make_engine();
    const svc::ResilientPredictor resilient(*engine);
    benchmark::DoNotOptimize(resilient.predict_batch(grid, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_ColdGrid_Resilient);

void BM_ColdLqn_Plain(benchmark::State& state) {
  const std::vector<svc::PredictionRequest> grid = lqn_grid();
  for (auto _ : state) {
    const auto engine = make_engine();
    benchmark::DoNotOptimize(engine->predict_batch(grid, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_ColdLqn_Plain);

void BM_ColdLqn_Resilient(benchmark::State& state) {
  const std::vector<svc::PredictionRequest> grid = lqn_grid();
  for (auto _ : state) {
    const auto engine = make_engine();
    const svc::ResilientPredictor resilient(*engine);
    benchmark::DoNotOptimize(resilient.predict_batch(grid, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.size()));
}
BENCHMARK(BM_ColdLqn_Resilient);

}  // namespace

BENCHMARK_MAIN();
