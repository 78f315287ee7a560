// Fault-tolerant serving layer: typed outcomes, deterministic fault
// injection, retry/fallback/stale policies and deadline handling.
// Calibrated without the simulator (same fixture as the batch-predictor
// suite) so every scenario is fast and exact; the history-independence
// cases load the golden default calibration instead.
#include "svc/resilient.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "calib/bundle.hpp"
#include "calib/predictor_set.hpp"
#include "core/historical_predictor.hpp"
#include "core/hybrid_predictor.hpp"
#include "core/lqn_predictor.hpp"
#include "rm/manager.hpp"
#include "rm/types.hpp"
#include "svc/fault.hpp"
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

FaultConfig failing(Method method, double probability) {
  FaultConfig config;
  config.for_method(method).fail_probability = probability;
  return config;
}

// ---------------------------------------------------------------------------
// Fault injector: determinism and spec grammar.
// ---------------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameConfigReproducesEverySequence) {
  const FaultConfig config = parse_fault_spec("*:fail=0.4,latency-ms=10");
  const FaultInjector a(config, 42), b(config, 42), other(config, 43);
  const auto sequence = [](const FaultInjector& injector) {
    std::vector<std::pair<bool, double>> draws;
    for (int i = 0; i < 200; ++i)
      for (const char* server : {"AppServF", "AppServS"})
        for (const Method method : {Method::kLqn, Method::kHistorical})
          draws.emplace_back(injector.should_fail(method, server),
                             injector.injected_latency_s(method, server));
    return draws;
  };
  const auto from_a = sequence(a);
  EXPECT_EQ(from_a, sequence(b));
  EXPECT_NE(from_a, sequence(other)) << "seed has no effect on the streams";
  EXPECT_EQ(a.decisions(), b.decisions());
  EXPECT_EQ(a.injected_failures(), b.injected_failures());
  EXPECT_GT(a.injected_failures(), 0u);
  EXPECT_LT(a.injected_failures(), a.decisions());
}

TEST(FaultInjector, PerPairStreamsAreIndependentOfInterleaving) {
  // Draw pair X alone, then interleaved with pair Y: X's sequence must
  // be byte-identical (counter-based streams, not a shared generator).
  const FaultConfig config = parse_fault_spec("lqn:fail=0.5");
  const FaultInjector alone(config, 7), mixed(config, 7);
  std::vector<bool> expected;
  for (int i = 0; i < 64; ++i)
    expected.push_back(alone.should_fail(Method::kLqn, "AppServF"));
  for (int i = 0; i < 64; ++i) {
    (void)mixed.should_fail(Method::kLqn, "AppServS");  // interleaved noise
    EXPECT_EQ(mixed.should_fail(Method::kLqn, "AppServF"), expected[
        static_cast<std::size_t>(i)]) << i;
  }
}

TEST(FaultInjector, DisabledInjectorNeverFires) {
  FaultInjector injector(parse_fault_spec("*:fail=1.0,latency-ms=100"), 1);
  injector.set_enabled(false);
  EXPECT_FALSE(injector.should_fail(Method::kLqn, "AppServF"));
  EXPECT_EQ(injector.injected_latency_s(Method::kLqn, "AppServF"), 0.0);
  injector.set_enabled(true);
  EXPECT_GT(injector.injected_latency_s(Method::kLqn, "AppServF"), 0.0);
}

TEST(FaultInjector, SpecGrammarAcceptsAndRejects) {
  const FaultConfig one = parse_fault_spec("lqn:fail=0.3,latency-ms=20");
  EXPECT_DOUBLE_EQ(one.lqn.fail_probability, 0.3);
  EXPECT_DOUBLE_EQ(one.lqn.latency_s, 0.020);
  EXPECT_DOUBLE_EQ(one.historical.fail_probability, 0.0);
  EXPECT_DOUBLE_EQ(one.hybrid.latency_s, 0.0);

  const FaultConfig star = parse_fault_spec("*:fail=0.1");
  EXPECT_DOUBLE_EQ(star.historical.fail_probability, 0.1);
  EXPECT_DOUBLE_EQ(star.lqn.fail_probability, 0.1);
  EXPECT_DOUBLE_EQ(star.hybrid.fail_probability, 0.1);
  EXPECT_FALSE(parse_fault_spec("").any());

  for (const char* bad :
       {"lqn", "lqn:", "lqn:fail", "lqn:fail=abc", "lqn:fail=1.5",
        "lqn:fail=-0.1", "lqn:fail=inf", "lqn:bogus=1", "turbo:fail=0.1"}) {
    EXPECT_THROW((void)parse_fault_spec(bad), std::invalid_argument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Typed outcomes and the fast path.
// ---------------------------------------------------------------------------

TEST(ResilientPredictor, FastPathBitEqualsPlainEngineWithZeroLatency) {
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  const auto reference_engine = make_engine();
  for (const Method method :
       {Method::kHistorical, Method::kLqn, Method::kHybrid}) {
    const PredictionRequest request{method, "AppServF", browse_load(900.0)};
    const Outcome outcome = resilient.predict(request);
    ASSERT_TRUE(outcome.ok()) << method_name(method);
    const ResilientResult& result = outcome.value();
    const PredictionResult plain = reference_engine->predict(request);
    EXPECT_EQ(result.prediction.mean_rt_s, plain.mean_rt_s);
    EXPECT_EQ(result.prediction.throughput_rps, plain.throughput_rps);
    EXPECT_EQ(result.served_by, method);
    EXPECT_FALSE(result.fallback);
    EXPECT_FALSE(result.stale);
    EXPECT_EQ(result.retries, 0);
    // Fast-path contract: untimed serving reads no clocks.
    EXPECT_EQ(result.latency_s, 0.0);
  }
  const ResilienceStats stats = resilient.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ResilientPredictor, ExpectedMisuseThrowsLogicError) {
  const Outcome error{PredictionError{ErrorCode::kInternal, Method::kLqn,
                                      "AppServF", "boom"}};
  EXPECT_FALSE(error.ok());
  EXPECT_THROW((void)error.value(), std::logic_error);
  const Outcome value{ResilientResult{}};
  EXPECT_TRUE(value.ok());
  EXPECT_THROW((void)value.error(), std::logic_error);
  EXPECT_EQ(error.error().to_string(), "internal [lqn/AppServF]: boom");
}

TEST(ResilientPredictor, InvalidWorkloadIsTypedAndNeverRetried) {
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  const Outcome outcome = resilient.predict(
      {Method::kLqn, "AppServF", browse_load(-5.0)});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidWorkload);
  // Caller error: rejected before the chain, nothing retried.
  EXPECT_EQ(resilient.stats().errors, 1u);
  EXPECT_EQ(resilient.stats().retries, 0u);
}

TEST(ResilientPredictor, UnknownServerExhaustsChainAsNotCalibrated) {
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  const Outcome outcome = resilient.predict(
      {Method::kLqn, "AppServX", browse_load(100.0)});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kNotCalibrated);
  // Deterministic config error: never retried.
  EXPECT_EQ(resilient.stats().retries, 0u);
}

// ---------------------------------------------------------------------------
// Fallback chain.
// ---------------------------------------------------------------------------

TEST(ResilientPredictor, MissingMethodFallsBackDownTheChainFlagged) {
  Predictors& p = predictors();
  const BatchPredictor engine(&p.historical, nullptr, &p.hybrid);
  const ResilientPredictor resilient(engine);
  const Outcome outcome = resilient.predict(
      {Method::kLqn, "AppServF", browse_load(700.0)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().requested, Method::kLqn);
  EXPECT_EQ(outcome.value().served_by, Method::kHybrid);
  EXPECT_TRUE(outcome.value().fallback);
  EXPECT_FALSE(outcome.value().stale);
  EXPECT_EQ(resilient.stats().fallbacks, 1u);
}

TEST(ResilientPredictor, FallbackDisabledSurfacesThePrimaryError) {
  Predictors& p = predictors();
  const BatchPredictor engine(&p.historical, nullptr, &p.hybrid);
  ResilienceOptions options;
  options.fallback_enabled = false;
  options.serve_stale = false;
  const ResilientPredictor resilient(engine, options);
  const Outcome outcome = resilient.predict(
      {Method::kLqn, "AppServF", browse_load(700.0)});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kNotCalibrated);
  EXPECT_EQ(outcome.error().method, Method::kLqn);
}

TEST(ResilientPredictor, PersistentFaultOnOneMethodDegradesToNext) {
  const FaultInjector injector(failing(Method::kLqn, 1.0));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.max_retries = 1;
  const ResilientPredictor resilient(*engine, options);
  const Outcome outcome = resilient.predict(
      {Method::kLqn, "AppServF", browse_load(400.0)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().served_by, Method::kHybrid);
  EXPECT_TRUE(outcome.value().fallback);
  EXPECT_EQ(outcome.value().retries, 1);  // lqn retried once, then degraded
  EXPECT_EQ(resilient.stats().retries, 1u);
  EXPECT_EQ(injector.decisions(), 2u);  // initial attempt + one retry
  EXPECT_EQ(injector.injected_failures(), 2u);
}

// ---------------------------------------------------------------------------
// Retries.
// ---------------------------------------------------------------------------

TEST(ResilientPredictor, RetryExhaustionReturnsTransientFailure) {
  const FaultInjector injector(failing(Method::kHistorical, 1.0));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.max_retries = 2;
  options.serve_stale = false;
  options.backoff_base_s = 0.0;  // keep the test instant
  const ResilientPredictor resilient(*engine, options);
  // Historical is the chain's last method: nothing to degrade to.
  const Outcome outcome = resilient.predict(
      {Method::kHistorical, "AppServF", browse_load(300.0)});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kTransientFailure);
  EXPECT_EQ(resilient.stats().retries, 2u);
  EXPECT_EQ(injector.decisions(), 3u);  // 1 attempt + 2 retries
}

TEST(ResilientPredictor, RetriesAreDeterministicAcrossIdenticalSetups) {
  // Backoff jitter is seeded and retries consult counter-based fault
  // streams: two identical predictor/injector stacks must agree on every
  // outcome, retry count and served method, bit for bit.
  ResilienceOptions options;
  options.backoff_base_s = 0.001;
  options.backoff_cap_s = 0.004;
  const FaultInjector fault_a(failing(Method::kLqn, 0.6), 9);
  const FaultInjector fault_b(failing(Method::kLqn, 0.6), 9);
  BatchOptions opt_a, opt_b;
  opt_a.fault = &fault_a;
  opt_b.fault = &fault_b;
  const auto engine_a = make_engine(opt_a);
  const auto engine_b = make_engine(opt_b);
  const ResilientPredictor ra(*engine_a, options), rb(*engine_b, options);
  for (double clients = 100.0; clients <= 1000.0; clients += 100.0) {
    const PredictionRequest request{Method::kLqn, "AppServF",
                                    browse_load(clients)};
    const Outcome oa = ra.predict(request), ob = rb.predict(request);
    ASSERT_EQ(oa.ok(), ob.ok()) << clients;
    if (oa.ok()) {
      EXPECT_EQ(oa.value().prediction.mean_rt_s,
                ob.value().prediction.mean_rt_s);
      EXPECT_EQ(oa.value().served_by, ob.value().served_by);
      EXPECT_EQ(oa.value().retries, ob.value().retries);
    }
  }
  EXPECT_EQ(ra.stats().retries, rb.stats().retries);
  EXPECT_EQ(fault_a.decisions(), fault_b.decisions());
}

// ---------------------------------------------------------------------------
// Solver divergence.
// ---------------------------------------------------------------------------

TEST(ResilientPredictor, SolverDivergenceIsTypedAndNeverRetried) {
  // An iteration budget far below what the layered fixed point needs
  // forces every lqn solve to surface SolverDivergedError.
  lqn::SolverOptions strangled;
  strangled.max_layer_iterations = 1;
  core::LqnPredictor lqn(test_calibration(), strangled);
  lqn.register_server(core::arch_f());
  Predictors& p = predictors();
  const BatchPredictor engine(&p.historical, &lqn, nullptr);
  ResilienceOptions options;
  options.fallback_enabled = false;
  options.serve_stale = false;
  const ResilientPredictor resilient(engine, options);

  // Divergence is a property of the request: asking again solves again
  // and fails the same way.
  const PredictionRequest request{Method::kLqn, "AppServF",
                                  browse_load(900.0)};
  for (int i = 0; i < 3; ++i) {
    const Outcome outcome = resilient.predict(request);
    ASSERT_FALSE(outcome.ok()) << i;
    EXPECT_EQ(outcome.error().code, ErrorCode::kSolverDiverged) << i;
  }
  EXPECT_EQ(resilient.stats().retries, 0u);  // deterministic: never retried
}

TEST(ResilientPredictor, FailingPrimaryIsAskedAgainOnEveryRequest) {
  // The serving layer keeps no memory of a method's failures: each
  // request evaluates the failing primary again before it degrades.
  const FaultInjector injector(failing(Method::kLqn, 1.0));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.max_retries = 0;
  const ResilientPredictor resilient(*engine, options);

  for (int i = 0; i < 8; ++i) {
    const Outcome outcome = resilient.predict(
        {Method::kLqn, "AppServF", browse_load(500.0 + i)});
    ASSERT_TRUE(outcome.ok()) << i;
    EXPECT_EQ(outcome.value().served_by, Method::kHybrid) << i;
    EXPECT_TRUE(outcome.value().fallback) << i;
    EXPECT_EQ(injector.decisions(), static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(resilient.stats().fallbacks, 8u);
}

TEST(ResilientPredictor, RecoveredPrimaryAnswersTheVeryNextRequest) {
  // Failures leave no state behind: once the primary works again, the
  // next request is its own answer, with no cooldown to wait out.
  FaultInjector injector(failing(Method::kLqn, 1.0));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.max_retries = 0;
  const ResilientPredictor resilient(*engine, options);

  for (int i = 0; i < 5; ++i) {
    const Outcome degraded = resilient.predict(
        {Method::kLqn, "AppServF", browse_load(500.0 + i)});
    ASSERT_TRUE(degraded.ok()) << i;
    EXPECT_EQ(degraded.value().served_by, Method::kHybrid) << i;
  }

  injector.set_enabled(false);
  const PredictionRequest request{Method::kLqn, "AppServF",
                                  browse_load(600.0)};
  const Outcome recovered = resilient.predict(request);
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().served_by, Method::kLqn);
  EXPECT_FALSE(recovered.value().fallback);
  EXPECT_FALSE(recovered.value().stale);
  EXPECT_EQ(recovered.value().prediction.mean_rt_s,
            predictors().lqn.predict("AppServF", browse_load(600.0)).mean_rt_s);
}

TEST(ResilientPredictor, ConcurrentRequestsGetTheirSequentialAnswers) {
  // TSan target: threads interleave a failing pair (degraded to the
  // hybrid) with healthy ones. Each answer must equal the one the same
  // request gets when asked alone, in order, on a fresh engine.
  const FaultInjector injector(failing(Method::kLqn, 1.0));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  ResilienceOptions options;
  options.max_retries = 0;
  options.serve_stale = false;

  std::vector<PredictionRequest> storm;
  for (int i = 0; i < 300; ++i) {
    switch (i % 3) {
      case 0:  // distinct loads: every one a miss that fails over
        storm.push_back({Method::kLqn, "AppServF", browse_load(100.0 + i)});
        break;
      case 1:
        storm.push_back({Method::kHistorical, "AppServVF", browse_load(100.0)});
        break;
      default:
        storm.push_back({Method::kHybrid, "AppServS", browse_load(50.0 + i)});
        break;
    }
  }

  const auto sequential_engine = make_engine(batch_options);
  const ResilientPredictor sequential(*sequential_engine, options);
  std::vector<Outcome> expected;
  expected.reserve(storm.size());
  for (const PredictionRequest& request : storm)
    expected.push_back(sequential.predict(request));

  const auto engine = make_engine(batch_options);
  const ResilientPredictor resilient(*engine, options);
  util::ThreadPool pool(4);
  const std::vector<Outcome> outcomes = resilient.predict_batch(storm, &pool);
  ASSERT_EQ(outcomes.size(), storm.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_EQ(outcomes[i].ok(), expected[i].ok()) << i;
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error().to_string();
    EXPECT_EQ(outcomes[i].value().served_by, expected[i].value().served_by)
        << i;
    EXPECT_EQ(outcomes[i].value().fallback, storm[i].method == Method::kLqn)
        << i;
    EXPECT_EQ(outcomes[i].value().prediction.mean_rt_s,
              expected[i].value().prediction.mean_rt_s)
        << i;
  }
  EXPECT_EQ(resilient.stats().requests, storm.size());
  EXPECT_EQ(resilient.stats().fallbacks, sequential.stats().fallbacks);
}

// ---------------------------------------------------------------------------
// Deadlines, virtual latency and stale serving.
// ---------------------------------------------------------------------------

TEST(ResilientPredictor, VirtualLatencyDeadlineThenStaleReplay) {
  FaultConfig config;
  config.lqn.latency_s = 1000.0;  // virtual seconds; nothing sleeps
  FaultInjector injector(config);
  injector.set_enabled(false);
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.deadline_s = 0.050;
  const ResilientPredictor resilient(*engine, options);
  const PredictionRequest request{Method::kLqn, "AppServF",
                                  browse_load(800.0)};

  // Healthy pass: served and remembered; timing is tracked (latency
  // injection is configured) so latency_s is a real clock reading.
  const Outcome healthy = resilient.predict(request);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.value().stale);
  EXPECT_GT(healthy.value().latency_s, 0.0);

  // Chaos on: ~1000 virtual seconds against a 50 ms deadline kills the
  // whole chain, and the last good answer is replayed, flagged stale.
  injector.set_enabled(true);
  const Outcome stale = resilient.predict(request);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value().stale);
  EXPECT_EQ(stale.value().served_by, Method::kLqn);
  EXPECT_FALSE(stale.value().fallback);
  EXPECT_EQ(stale.value().prediction.mean_rt_s,
            healthy.value().prediction.mean_rt_s);
  EXPECT_EQ(resilient.stats().stale_serves, 1u);
  EXPECT_EQ(resilient.stats().deadline_hits, 1u);

  // A request with no stale entry surfaces the typed deadline error.
  const Outcome cold = resilient.predict(
      {Method::kLqn, "AppServF", browse_load(850.0)});
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.error().code, ErrorCode::kDeadlineExceeded);
}

TEST(ResilientPredictor, StaleReplayIsBoundedByTheEngineCache) {
  // Stale replay reads the engine cache, so the cache's capacity bounds
  // it: with one entry, the most recently used workload replays stale
  // and the evicted one dies with the typed deadline error.
  FaultConfig config;
  config.lqn.latency_s = 1000.0;  // virtual seconds; nothing sleeps
  FaultInjector injector(config);
  injector.set_enabled(false);
  BatchOptions batch_options;
  batch_options.fault = &injector;
  batch_options.cache_capacity_per_shard = 1;
  batch_options.cache_shards = 1;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.deadline_s = 0.050;
  const ResilientPredictor resilient(*engine, options);

  const PredictionRequest evicted{Method::kLqn, "AppServF",
                                  browse_load(400.0)};
  const PredictionRequest recent{Method::kLqn, "AppServF", browse_load(500.0)};
  ASSERT_TRUE(resilient.predict(evicted).ok());
  const Outcome healthy = resilient.predict(recent);  // evicts `evicted`
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(engine->cache_stats().evictions, 1u);

  injector.set_enabled(true);
  const Outcome stale = resilient.predict(recent);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value().stale);
  EXPECT_EQ(stale.value().served_by, Method::kLqn);
  EXPECT_EQ(stale.value().prediction.mean_rt_s,
            healthy.value().prediction.mean_rt_s);
  const Outcome cold = resilient.predict(evicted);
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.error().code, ErrorCode::kDeadlineExceeded);
}

TEST(ResilientPredictor, StaleReplayWalksTheChain) {
  // A fallback method's cached answer rescues a request whose whole
  // chain failed, even when a request for that method cached it.
  FaultConfig config;
  config.lqn.latency_s = 1000.0;
  const FaultInjector injector(config);
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.deadline_s = 0.050;
  const ResilientPredictor resilient(*engine, options);

  const Outcome historical = resilient.predict(
      {Method::kHistorical, "AppServF", browse_load(800.0)});
  ASSERT_TRUE(historical.ok());
  const Outcome stale =
      resilient.predict({Method::kLqn, "AppServF", browse_load(800.0)});
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value().stale);
  EXPECT_TRUE(stale.value().fallback);
  EXPECT_EQ(stale.value().requested, Method::kLqn);
  EXPECT_EQ(stale.value().served_by, Method::kHistorical);
  EXPECT_FALSE(stale.value().prediction.cached);
  EXPECT_EQ(stale.value().prediction.mean_rt_s,
            historical.value().prediction.mean_rt_s);
  EXPECT_EQ(resilient.stats().deadline_hits, 1u);
}

TEST(ResilientPredictor, StaleReplayPrefersTheRequestedMethod) {
  // The chain is walked in order, so the requested method's cached
  // answer wins over a fallback's newer one.
  FaultConfig config;
  config.lqn.latency_s = 1000.0;  // virtual seconds; nothing sleeps
  FaultInjector injector(config);
  injector.set_enabled(false);
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.deadline_s = 0.050;
  const ResilientPredictor resilient(*engine, options);
  const PredictionRequest request{Method::kLqn, "AppServF",
                                  browse_load(800.0)};

  const Outcome lqn = resilient.predict(request);  // caches the lqn answer
  ASSERT_TRUE(lqn.ok());
  // The fallback's answer for the same workload is cached after it...
  const Outcome hybrid =
      resilient.predict({Method::kHybrid, "AppServF", browse_load(800.0)});
  ASSERT_TRUE(hybrid.ok());
  EXPECT_FALSE(hybrid.value().prediction.cached);
  ASSERT_NE(hybrid.value().prediction.mean_rt_s,
            lqn.value().prediction.mean_rt_s);

  // ...and when lqn then misses its deadline, lqn's older answer is
  // replayed, not hybrid's newer one.
  injector.set_enabled(true);
  const Outcome stale = resilient.predict(request);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale.value().stale);
  EXPECT_EQ(stale.value().served_by, Method::kLqn);
  EXPECT_FALSE(stale.value().fallback);
  EXPECT_EQ(stale.value().prediction.mean_rt_s,
            lqn.value().prediction.mean_rt_s);
}

TEST(ResilientPredictor, PredictWithDeadlineOverridesConfiguredDeadline) {
  // The serving daemon's per-request protocol deadlines ride this
  // entry point: an impossible caller deadline must fail a request that
  // succeeds under the (unset) configured deadline.
  const auto engine = make_engine();
  ResilienceOptions options;
  options.fallback_enabled = false;
  options.serve_stale = false;
  const ResilientPredictor resilient(*engine, options);
  const PredictionRequest request{Method::kLqn, "AppServF",
                                  browse_load(750.0)};
  const Outcome impossible = resilient.predict_with_deadline(request, 1e-12);
  ASSERT_FALSE(impossible.ok());
  EXPECT_EQ(impossible.error().code, ErrorCode::kDeadlineExceeded);
  // deadline_s <= 0 falls back to the configured (disabled) deadline.
  EXPECT_TRUE(resilient.predict_with_deadline(request, 0.0).ok());
  EXPECT_TRUE(resilient.predict_with_deadline(request, 5.0).ok());
}

TEST(ResilientPredictor, DeadlineExpiryLeavesTheNextRequestUnchanged) {
  // Slow is not broken, and a request that ran out of time is not
  // remembered: the same request without a deadline is the LQN's own
  // answer. The injected latency is virtual, charged only to deadlines.
  FaultConfig config;
  config.lqn.latency_s = 1000.0;
  const FaultInjector injector(config);
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.serve_stale = false;
  const ResilientPredictor resilient(*engine, options);
  const PredictionRequest request{Method::kLqn, "AppServF",
                                  browse_load(100.0)};
  for (int i = 0; i < 3; ++i) {
    const Outcome timed_out = resilient.predict_with_deadline(request, 0.010);
    ASSERT_FALSE(timed_out.ok()) << i;
    EXPECT_EQ(timed_out.error().code, ErrorCode::kDeadlineExceeded) << i;
  }
  EXPECT_EQ(resilient.stats().deadline_hits, 3u);

  const Outcome untimed = resilient.predict(request);
  ASSERT_TRUE(untimed.ok()) << untimed.error().to_string();
  EXPECT_EQ(untimed.value().served_by, Method::kLqn);
  EXPECT_FALSE(untimed.value().fallback);
  EXPECT_FALSE(untimed.value().stale);
  EXPECT_EQ(untimed.value().prediction.mean_rt_s,
            predictors().lqn.predict("AppServF", browse_load(100.0)).mean_rt_s);
}

TEST(ResilientPredictor, BatchBudgetExpiryBackfillsTypedErrors) {
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  std::vector<PredictionRequest> grid;
  for (int i = 0; i < 32; ++i)
    grid.push_back({Method::kHistorical, "AppServF", browse_load(100.0 + i)});
  // A budget that is already exhausted: every slot must still come back,
  // each as a typed deadline error — never an exception or a gap.
  const std::vector<Outcome> outcomes =
      resilient.predict_batch(grid, nullptr, 1e-9);
  ASSERT_EQ(outcomes.size(), grid.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_FALSE(outcomes[i].ok()) << i;
    EXPECT_EQ(outcomes[i].error().code, ErrorCode::kDeadlineExceeded) << i;
  }
  EXPECT_EQ(resilient.stats().requests, grid.size());
  EXPECT_EQ(resilient.stats().errors, grid.size());
}

TEST(ResilientPredictor, ParallelBatchBudgetCancellationIsClean) {
  // TSan target: a pool races request starts against budget expiry; every
  // outcome must be a value or a typed error, results aligned to input.
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  std::vector<PredictionRequest> grid;
  for (int i = 0; i < 200; ++i)
    grid.push_back({Method::kLqn, "AppServVF", browse_load(50.0 + i)});
  util::ThreadPool pool(8);
  const std::vector<Outcome> outcomes =
      resilient.predict_batch(grid, &pool, 2e-3);
  ASSERT_EQ(outcomes.size(), grid.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) {
      EXPECT_EQ(outcomes[i].error().code, ErrorCode::kDeadlineExceeded) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch isolation (one bad request must not poison the batch).
// ---------------------------------------------------------------------------

TEST(BatchPredictor, PerRequestFailuresDoNotLoseTheBatch) {
  const auto engine = make_engine();
  const std::vector<PredictionRequest> grid{
      {Method::kHistorical, "AppServF", browse_load(200.0)},
      {Method::kLqn, "AppServF", browse_load(-3.0)},       // invalid workload
      {Method::kHybrid, "AppServX", browse_load(200.0)},   // unknown server
      {Method::kHistorical, "AppServF", browse_load(400.0)},
  };
  util::ThreadPool pool(2);
  const std::vector<PredictionResult> results =
      engine->predict_batch(grid, &pool);
  ASSERT_EQ(results.size(), grid.size());
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("invalid workload"), std::string::npos)
      << results[1].error;
  EXPECT_FALSE(results[2].ok());
  EXPECT_TRUE(results[3].ok());
  EXPECT_GT(results[3].mean_rt_s, results[0].mean_rt_s);
}

TEST(ResilientPredictor, MixedBatchKeepsGoodCellsAndTypesBadOnes) {
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  const std::vector<PredictionRequest> grid{
      {Method::kLqn, "AppServF", browse_load(300.0)},
      {Method::kLqn, "AppServF", browse_load(-1.0)},
      {Method::kHybrid, "AppServVF", browse_load(300.0)},
  };
  const std::vector<Outcome> outcomes = resilient.predict_batch(grid);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  ASSERT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].error().code, ErrorCode::kInvalidWorkload);
  EXPECT_TRUE(outcomes[2].ok());
}

// ---------------------------------------------------------------------------
// Capacity probes and the resource manager.
// ---------------------------------------------------------------------------

TEST(ResilientPredictor, CapacityOutcomeMatchesDirectPredictor) {
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  const CapacityOutcome outcome =
      resilient.max_clients_for_goal(Method::kHybrid, "AppServF", 0.6);
  ASSERT_TRUE(outcome.ok());
  const core::CapacityResult direct =
      predictors().hybrid.max_clients_for_goal("AppServF", 0.6);
  EXPECT_EQ(outcome.value().max_clients, direct.max_clients);
  EXPECT_EQ(outcome.value().prediction_evaluations,
            direct.prediction_evaluations);

  const CapacityOutcome unknown =
      resilient.max_clients_for_goal(Method::kHybrid, "AppServX", 0.6);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, ErrorCode::kNotCalibrated);
}

TEST(ResilientPredictor, ResourceManagerPlansAroundFailedProbes) {
  Predictors& p = predictors();
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  rm::ManagerOptions manager_options;
  const rm::ResourceManager manager(p.hybrid, manager_options);

  const std::vector<rm::ServiceClassSpec> classes{
      {"browse", 0.6, false, 400.0}};
  const std::vector<rm::PoolServer> healthy{{"AppServF", 186.0},
                                            {"AppServVF", 320.0}};

  // Fault-free, the resilient path reproduces Algorithm 1 exactly.
  const rm::Allocation plain = manager.allocate(classes, healthy);
  const rm::Allocation resilient_run =
      manager.allocate(classes, healthy, resilient, Method::kHybrid);
  EXPECT_EQ(resilient_run.failed_probes, 0);
  EXPECT_EQ(resilient_run.unallocated_scaled, plain.unallocated_scaled);
  ASSERT_EQ(resilient_run.per_server.size(), plain.per_server.size());
  for (std::size_t i = 0; i < plain.per_server.size(); ++i)
    EXPECT_EQ(resilient_run.per_server[i], plain.per_server[i]) << i;

  // A degraded pool: the unknown architecture's probes return typed
  // errors, score as zero capacity, and the load lands on the healthy
  // server instead of aborting the allocation.
  const std::vector<rm::PoolServer> degraded{{"AppServX", 186.0},
                                             {"AppServVF", 320.0}};
  const rm::Allocation planned_around =
      manager.allocate(classes, degraded, resilient, Method::kHybrid);
  EXPECT_GT(planned_around.failed_probes, 0);
  EXPECT_EQ(planned_around.scaled_on_server(0), 0.0);
  EXPECT_GT(planned_around.scaled_on_server(1), 0.0);
  EXPECT_EQ(planned_around.unallocated_scaled, 0.0);
}

// ---------------------------------------------------------------------------
// History independence: an answer depends only on its request.
// ---------------------------------------------------------------------------

/// The default calibration (tests/golden), the bundle the capacity-plan
/// benchmark plans with.
const calib::CalibrationBundle& default_bundle() {
  static const calib::CalibrationBundle bundle = calib::load_bundle(
      std::string(EPP_GOLDEN_DIR) + "/calibrate_default.epp");
  return bundle;
}

TEST(ResilientPredictor, DivergingRequestsDoNotChangeAnotherRequestsAnswer) {
  // Under the default calibration the LQN does not converge for AppServS
  // at these loads, but does at 703 clients. Five diverging requests in
  // a row must leave the 703-client answer to the LQN itself.
  const calib::PredictorSet set = calib::make_predictors(default_bundle());
  const ResilientPredictor resilient(*set.batch);
  for (const double clients : {655.0, 660.0, 668.0, 671.0, 675.0}) {
    const PredictionRequest diverging{Method::kLqn, "AppServS",
                                      browse_load(clients)};
    const PredictionResult direct = set.batch->predict(diverging);
    ASSERT_FALSE(direct.ok()) << clients;
    ASSERT_EQ(*direct.code, ErrorCode::kSolverDiverged) << clients;
    const Outcome outcome = resilient.predict(diverging);
    ASSERT_TRUE(outcome.ok()) << clients;
    EXPECT_EQ(outcome.value().served_by, Method::kHybrid) << clients;
    EXPECT_TRUE(outcome.value().fallback) << clients;
  }

  const Outcome converging =
      resilient.predict({Method::kLqn, "AppServS", browse_load(703.0)});
  ASSERT_TRUE(converging.ok()) << converging.error().to_string();
  EXPECT_EQ(converging.value().served_by, Method::kLqn);
  EXPECT_FALSE(converging.value().fallback);
  EXPECT_FALSE(converging.value().stale);
  EXPECT_EQ(converging.value().prediction.mean_rt_s,
            set.lqn->predict("AppServS", browse_load(703.0)).mean_rt_s);
}

TEST(ResilientPredictor, FailedProbesDoNotChangeTheNextAllocation) {
  // Algorithm 1 through the resilient path with the hybrid planner, as
  // the capacity-plan benchmark runs it. Some AppServS probes fail; the
  // plan must be the same whether or not failing probes ran before it,
  // and AppServS must still take clients.
  const calib::CalibrationBundle& bundle = default_bundle();
  const std::vector<rm::PoolServer> servers = rm::standard_pool(
      bundle.max_throughput("AppServS"), bundle.max_throughput("AppServF"),
      bundle.max_throughput("AppServVF"));
  const std::vector<rm::ServiceClassSpec> classes =
      rm::standard_classes(9000.0);
  const auto plan = [&](bool fail_first) {
    const calib::PredictorSet set = calib::make_predictors(bundle);
    const ResilientPredictor resilient(*set.batch);
    const rm::ResourceManager manager(*set.hybrid, {1.1, 7.0, 1.0});
    if (fail_first)
      for (int i = 0; i < 10; ++i) {
        const CapacityOutcome failed = resilient.max_clients_for_goal(
            Method::kHybrid, "AppServS", 0.150, 1.0);
        EXPECT_FALSE(failed.ok()) << "the failing probe no longer fails";
      }
    return manager.allocate(classes, servers, resilient, Method::kHybrid);
  };

  const rm::Allocation fresh = plan(false);
  const rm::Allocation after_failures = plan(true);
  EXPECT_GT(fresh.failed_probes, 0);
  double on_s = 0.0;
  for (std::size_t i = 0; i < servers.size(); ++i)
    if (servers[i].arch == "AppServS") on_s += fresh.scaled_on_server(i);
  EXPECT_GT(on_s, 0.0) << "AppServS took no clients";

  EXPECT_EQ(after_failures.per_server, fresh.per_server);
  EXPECT_EQ(after_failures.unallocated_scaled, fresh.unallocated_scaled);
  EXPECT_EQ(after_failures.failed_probes, fresh.failed_probes);
  EXPECT_EQ(after_failures.prediction_evaluations,
            fresh.prediction_evaluations);
}

TEST(ResilientPredictor, CapacityProbeFailureIsTypedAndAskedAgain) {
  // The hybrid's AppServS probe at an all-buy mix fails under the
  // default calibration. It comes back as a typed error naming the
  // method and server, and nothing is remembered: every probe asks the
  // predictor again and fails the same way.
  const calib::PredictorSet set = calib::make_predictors(default_bundle());
  const ResilientPredictor resilient(*set.batch);
  for (int i = 0; i < 3; ++i) {
    const CapacityOutcome outcome = resilient.max_clients_for_goal(
        Method::kHybrid, "AppServS", 0.150, 1.0);
    ASSERT_FALSE(outcome.ok()) << i;
    EXPECT_EQ(outcome.error().code, ErrorCode::kSolverDiverged)
        << error_code_name(outcome.error().code);
    EXPECT_EQ(outcome.error().method, Method::kHybrid) << i;
    EXPECT_EQ(outcome.error().server, "AppServS") << i;
  }
  const ResilienceStats stats = resilient.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.deadline_hits, 0u);

  // A probe that can succeed right after the failures is the
  // predictor's own answer.
  const CapacityOutcome browse = resilient.max_clients_for_goal(
      Method::kHybrid, "AppServS", 0.150, 0.0);
  ASSERT_TRUE(browse.ok()) << browse.error().to_string();
  EXPECT_EQ(browse.value().max_clients,
            set.hybrid->max_clients_for_goal("AppServS", 0.150, 0.0)
                .max_clients);
}

}  // namespace
}  // namespace epp::svc
