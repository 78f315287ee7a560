// Batch prediction engine over all three methods, calibrated without the
// simulator: the LQN predictor runs from the paper's table-2 constants,
// and the historical model is fitted from LQN-generated pseudo data
// (exactly the hybrid method's data source), keeping the fixture fast.
#include "svc/batch_predictor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/historical_predictor.hpp"
#include "core/hybrid_predictor.hpp"
#include "core/lqn_predictor.hpp"
#include "svc/fault.hpp"
#include "svc/resilient.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace epp::svc {
namespace {

core::TradeCalibration test_calibration() {
  core::TradeCalibration cal;
  cal.browse = {0.005376, 0.00083, 0.00040, 1.14};
  cal.buy = {0.010455, 0.00161, 0.00050, 2.0};
  return cal;
}

struct Predictors {
  static constexpr double kGradient = 0.14;
  core::LqnPredictor lqn{test_calibration()};
  core::HybridPredictor hybrid{test_calibration()};
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
    // Relationship 3 from the established server's LQN bottleneck bound.
    std::vector<double> buy_pct, max_tput;
    for (const double pct : {0.0, 10.0, 25.0, 40.0}) {
      buy_pct.push_back(pct);
      max_tput.push_back(lqn.predict_max_throughput_rps("AppServF", pct / 100));
    }
    historical.calibrate_mix(buy_pct, max_tput);
  }
};

Predictors& predictors() {
  static Predictors p;
  return p;
}

core::WorkloadSpec browse_load(double clients) {
  core::WorkloadSpec w;
  w.browse_clients = clients;
  return w;
}

std::unique_ptr<BatchPredictor> make_engine(BatchOptions options = {}) {
  Predictors& p = predictors();
  return std::make_unique<BatchPredictor>(&p.historical, &p.lqn, &p.hybrid,
                                          options);
}

TEST(BatchPredictor, CachedPredictionBitEqualsFreshForAllMethods) {
  // 3 servers x {0, 25%} buy x 0.25-2x each server's knee. AppServS
  // all-browse at 1.1x its knee (676 clients) is a cell whose LQN solve
  // does not converge.
  const auto engine = make_engine();
  Predictors& p = predictors();
  int answered = 0, diverged = 0;
  for (const char* server : {"AppServS", "AppServF", "AppServVF"})
    for (const double buy : {0.0, 0.25}) {
      const double knee =
          p.lqn.predict_max_throughput_rps(server, buy) / Predictors::kGradient;
      for (const double scale : {0.25, 0.5, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0}) {
        const double clients = std::round(scale * knee);
        core::WorkloadSpec w;
        w.buy_clients = std::round(clients * buy);
        w.browse_clients = clients - w.buy_clients;
        for (Method method :
             {Method::kHistorical, Method::kLqn, Method::kHybrid}) {
          const std::string cell = std::string(method_name(method)) + " " +
                                   server + " buy=" + std::to_string(buy) +
                                   " x" + std::to_string(scale);
          const PredictionRequest request{method, server, w};
          const PredictionResult cold = engine->predict(request);
          const PredictionResult warm = engine->predict(request);
          const core::WorkloadSpec q = engine->quantized(w);
          if (method == Method::kLqn && !cold.ok()) {
            // Not cached: the engine re-solves and fails the same way.
            ASSERT_EQ(cold.code, ErrorCode::kSolverDiverged) << cell;
            EXPECT_EQ(warm.code, ErrorCode::kSolverDiverged) << cell;
            try {
              (void)p.lqn.solve(server, q);
              ADD_FAILURE() << cell << ": direct solve converged";
            } catch (const core::SolverDivergedError& error) {
              EXPECT_EQ(cold.error, error.what()) << cell;
              EXPECT_EQ(warm.error, error.what()) << cell;
            }
            ++diverged;
            continue;
          }
          ASSERT_TRUE(cold.ok()) << cell << ": " << cold.error;
          EXPECT_FALSE(cold.cached) << cell;
          EXPECT_TRUE(warm.cached) << cell;
          // Bit-equality, not tolerance: the cache memoizes the exact
          // value the predictor computed at the quantized workload.
          const core::Predictor& direct = engine->predictor_for(method);
          EXPECT_EQ(cold.mean_rt_s, direct.predict_mean_rt_s(server, q))
              << cell;
          EXPECT_EQ(cold.throughput_rps,
                    direct.predict_throughput_rps(server, q))
              << cell;
          EXPECT_EQ(warm.mean_rt_s, cold.mean_rt_s) << cell;
          EXPECT_EQ(warm.throughput_rps, cold.throughput_rps) << cell;
          ++answered;
        }
      }
    }
  EXPECT_EQ(diverged, 1);
  EXPECT_EQ(answered, 3 * 2 * 8 * 3 - diverged);
}

/// A stand-in method that counts its evaluations.
class CountingPredictor final : public core::Predictor {
 public:
  std::string name() const override { return "counting"; }
  core::Prediction predict(const std::string&,
                           const core::WorkloadSpec& w) const override {
    evaluations_.fetch_add(1);
    return {0.02 + 1e-5 * w.total_clients(),
            w.total_clients() / (w.think_time_s + 0.02)};
  }
  double predict_max_throughput_rps(const std::string&, double) const override {
    return 186.0;
  }
  int evaluations() const { return evaluations_.load(); }

 private:
  mutable std::atomic<int> evaluations_{0};
};

TEST(BatchPredictor, OneEvaluationPerMissNonePerHit) {
  CountingPredictor counting;
  Predictors& p = predictors();
  const BatchPredictor engine(&counting, &p.lqn, &p.hybrid);
  for (int i = 1; i <= 5; ++i) {
    const PredictionRequest request{Method::kHistorical, "AppServF",
                                    browse_load(100.0 + i)};
    ASSERT_FALSE(engine.predict(request).cached);
    EXPECT_EQ(counting.evaluations(), i) << "after miss " << i;
    ASSERT_TRUE(engine.predict(request).cached);
    EXPECT_EQ(counting.evaluations(), i) << "after hit " << i;
  }

  CountingPredictor behind_resilient;
  const BatchPredictor wrapped(&behind_resilient, &p.lqn, &p.hybrid);
  const ResilientPredictor resilient(wrapped);
  for (int i = 1; i <= 5; ++i) {
    const Outcome outcome = resilient.predict(
        {Method::kHistorical, "AppServF", browse_load(200.0 + i)});
    ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_FALSE(outcome.value().prediction.cached);
    EXPECT_EQ(behind_resilient.evaluations(), i) << "after request " << i;
  }
}

TEST(BatchPredictor, QuantizationSharesCacheEntries) {
  const auto engine = make_engine();
  const PredictionRequest a{Method::kHistorical, "AppServF",
                            browse_load(900.2)};
  const PredictionRequest b{Method::kHistorical, "AppServF",
                            browse_load(899.8)};
  const PredictionResult first = engine->predict(a);
  const PredictionResult second = engine->predict(b);  // same 900-client key
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.mean_rt_s, first.mean_rt_s);
  EXPECT_EQ(engine->cache_stats().entries, 1u);
}

TEST(BatchPredictor, ParallelBatchMatchesSerialExactly) {
  // A grid with deliberate duplicates, evaluated concurrently, must agree
  // bit-for-bit with a serial evaluation on a fresh engine.
  std::vector<PredictionRequest> grid;
  for (const char* server : {"AppServS", "AppServF", "AppServVF"})
    for (Method method :
         {Method::kHistorical, Method::kLqn, Method::kHybrid})
      for (int pass = 0; pass < 2; ++pass)
        for (double clients = 200.0; clients <= 1400.0; clients += 300.0)
          grid.push_back({method, server, browse_load(clients)});

  const auto serial_engine = make_engine();
  const auto serial = serial_engine->predict_batch(grid, nullptr);

  util::ThreadPool pool(4);
  const auto parallel_engine = make_engine();
  const auto parallel = parallel_engine->predict_batch(grid, &pool);

  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(parallel[i].mean_rt_s, serial[i].mean_rt_s) << i;
    EXPECT_EQ(parallel[i].throughput_rps, serial[i].throughput_rps) << i;
  }
  // Every request does exactly one cache lookup, and the duplicated half
  // of the grid is served from cache (serially: all second-pass requests).
  const CacheStats stats = parallel_engine->cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, grid.size());
  EXPECT_GT(stats.hits, 0u);
}

TEST(BatchPredictor, ConcurrentHitsAndMissesStayConsistent) {
  const auto engine = make_engine();
  util::ThreadPool pool(4);
  // Hammer a small working set from many threads; historical-only keeps
  // this fast, racing lookups against inserts on shared shards.
  std::vector<PredictionRequest> storm;
  for (int i = 0; i < 600; ++i)
    storm.push_back({Method::kHistorical, "AppServF",
                     browse_load(100.0 * (1 + i % 6))});
  const auto results = engine->predict_batch(storm, &pool);
  const PredictionResult reference =
      engine->predict({Method::kHistorical, "AppServF", browse_load(100.0)});
  EXPECT_TRUE(reference.cached);
  for (std::size_t i = 0; i < storm.size(); ++i) {
    if (i % 6 == 0) {
      EXPECT_EQ(results[i].mean_rt_s, reference.mean_rt_s) << i;
    }
  }
  const CacheStats stats = engine->cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, storm.size() + 1);
  EXPECT_EQ(stats.entries, 6u);
}

TEST(BatchPredictor, EvictionBoundedCacheStillAnswersCorrectly) {
  BatchOptions options;
  options.cache_capacity_per_shard = 2;
  options.cache_shards = 1;
  const auto engine = make_engine(options);
  for (double clients : {100.0, 200.0, 300.0, 400.0, 100.0}) {
    const auto r = engine->predict(
        {Method::kHistorical, "AppServF", browse_load(clients)});
    EXPECT_GT(r.mean_rt_s, 0.0);
  }
  const CacheStats stats = engine->cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 2u);
}

TEST(BatchPredictor, MissingPredictorAndBadOptionsThrow) {
  Predictors& p = predictors();
  const BatchPredictor partial(&p.historical, nullptr, nullptr);
  const PredictionResult missing =
      partial.predict({Method::kLqn, "AppServF", browse_load(100.0)});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code, ErrorCode::kNotCalibrated);
  EXPECT_NE(missing.error.find("lqn"), std::string::npos) << missing.error;
  BatchOptions bad;
  bad.cache_capacity_per_shard = 0;
  EXPECT_THROW(BatchPredictor(&p.historical, nullptr, nullptr, bad),
               std::invalid_argument);
}

TEST(BatchPredictor, FailuresComeBackAsCodesNotExceptions) {
  const auto engine = make_engine();
  const PredictionResult unknown =
      engine->predict({Method::kHybrid, "AppServX", browse_load(100.0)});
  EXPECT_EQ(unknown.code, ErrorCode::kNotCalibrated);
  const PredictionResult invalid =
      engine->predict({Method::kLqn, "AppServF", browse_load(-5.0)});
  EXPECT_EQ(invalid.code, ErrorCode::kInvalidWorkload);
  EXPECT_NE(invalid.error.find("browse_clients"), std::string::npos)
      << invalid.error;

  // An expired ambient token cancels the solve mid-iteration.
  const auto expired = util::CancellationToken::after(0.0);
  const util::CancellationScope scope(&expired);
  const PredictionResult late =
      engine->predict({Method::kLqn, "AppServF", browse_load(777.0)});
  EXPECT_EQ(late.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(engine->cache_stats().entries, 0u);
}

TEST(BatchPredictor, InjectedFaultIsATransientFailureResult) {
  FaultInjector injector(parse_fault_spec("lqn:fail=1"));
  BatchOptions options;
  options.fault = &injector;
  const auto engine = make_engine(options);
  const std::vector<PredictionRequest> grid{
      {Method::kLqn, "AppServF", browse_load(300.0)},
      {Method::kHistorical, "AppServF", browse_load(300.0)}};
  const auto results = engine->predict_batch(grid);
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].code, ErrorCode::kTransientFailure);
  EXPECT_EQ(results[0].error, "injected fault: lqn on 'AppServF'");
  EXPECT_TRUE(results[1].ok());

  // The failure was not cached: with the injector off the cell computes.
  injector.set_enabled(false);
  const PredictionResult healed = engine->predict(grid[0]);
  EXPECT_TRUE(healed.ok());
  EXPECT_FALSE(healed.cached);
}

}  // namespace
}  // namespace epp::svc
