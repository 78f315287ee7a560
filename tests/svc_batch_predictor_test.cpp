// Batch prediction engine over all three methods, calibrated without the
// simulator: the LQN predictor runs from the paper's table-2 constants,
// and the historical model is fitted from LQN-generated pseudo data
// (exactly the hybrid method's data source), keeping the fixture fast.
#include "svc/batch_predictor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/historical_predictor.hpp"
#include "core/hybrid_predictor.hpp"
#include "core/lqn_predictor.hpp"
#include "svc/fault.hpp"
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
  const auto engine = make_engine();
  for (Method method : {Method::kHistorical, Method::kLqn, Method::kHybrid}) {
    const PredictionRequest request{method, "AppServF", browse_load(900.0)};
    const PredictionResult cold = engine->predict(request);
    const PredictionResult warm = engine->predict(request);
    EXPECT_FALSE(cold.cached) << method_name(method);
    EXPECT_TRUE(warm.cached) << method_name(method);
    // Bit-equality, not tolerance: the cache memoizes the exact value the
    // predictor computed at the quantized workload.
    EXPECT_EQ(warm.mean_rt_s, cold.mean_rt_s) << method_name(method);
    EXPECT_EQ(warm.throughput_rps, cold.throughput_rps) << method_name(method);
    const core::Predictor& direct = engine->predictor_for(method);
    const core::WorkloadSpec q = engine->quantized(request.workload);
    EXPECT_EQ(warm.mean_rt_s, direct.predict_mean_rt_s("AppServF", q));
    EXPECT_EQ(warm.throughput_rps,
              direct.predict_throughput_rps("AppServF", q));
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
