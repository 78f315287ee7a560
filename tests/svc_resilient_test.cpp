// Fault-tolerant serving layer: typed outcomes, deterministic fault
// injection, retry/fallback/stale policies, circuit breakers and
// deadline handling. Calibrated without the simulator (same fixture as
// the batch-predictor suite) so every scenario is fast and exact.
#include "svc/resilient.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/historical_predictor.hpp"
#include "core/hybrid_predictor.hpp"
#include "core/lqn_predictor.hpp"
#include "rm/manager.hpp"
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

TEST(ResilientPredictor, InvalidWorkloadIsTypedAndSkipsTheBreaker) {
  const auto engine = make_engine();
  const ResilientPredictor resilient(*engine);
  const Outcome outcome = resilient.predict(
      {Method::kLqn, "AppServF", browse_load(-5.0)});
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidWorkload);
  // Caller error, not pair health: breaker untouched, nothing retried.
  EXPECT_EQ(resilient.breaker_state(Method::kLqn, "AppServF"),
            BreakerState::kClosed);
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
  // Deterministic config error: never retried, never trips a breaker.
  EXPECT_EQ(resilient.stats().retries, 0u);
  EXPECT_EQ(resilient.breaker_state(Method::kLqn, "AppServX"),
            BreakerState::kClosed);
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

TEST(ResilientPredictor, SolverDivergenceIsTypedAndTripsTheBreaker) {
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
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_s = 1000.0;
  const ResilientPredictor resilient(engine, options);

  const PredictionRequest request{Method::kLqn, "AppServF",
                                  browse_load(900.0)};
  const Outcome first = resilient.predict(request);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.error().code, ErrorCode::kSolverDiverged);
  EXPECT_EQ(resilient.stats().retries, 0u);  // deterministic: never retried
  EXPECT_EQ(resilient.breaker_state(Method::kLqn, "AppServF"),
            BreakerState::kOpen);

  const Outcome second = resilient.predict(request);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kCircuitOpen);
  EXPECT_EQ(resilient.stats().breaker_rejections, 1u);
}

// ---------------------------------------------------------------------------
// Circuit breakers.
// ---------------------------------------------------------------------------

TEST(ResilientPredictor, BreakerOpensAtThresholdAndHealsThroughHalfOpen) {
  FaultInjector injector(failing(Method::kHistorical, 1.0));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.max_retries = 0;
  options.serve_stale = false;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_s = 0.0;  // admit the probe immediately
  const ResilientPredictor resilient(*engine, options);

  const PredictionRequest request{Method::kHistorical, "AppServF",
                                  browse_load(250.0)};
  for (int i = 0; i < 2; ++i) {
    const Outcome outcome = resilient.predict(request);
    ASSERT_FALSE(outcome.ok()) << i;
    EXPECT_EQ(outcome.error().code, ErrorCode::kTransientFailure) << i;
  }
  EXPECT_EQ(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kOpen);
  EXPECT_EQ(resilient.stats().breaker_opens, 1u);

  // Zero cooldown: the next call becomes the half-open probe, still
  // failing, and re-opens the circuit.
  const Outcome probe = resilient.predict(request);
  ASSERT_FALSE(probe.ok());
  EXPECT_EQ(probe.error().code, ErrorCode::kTransientFailure);
  EXPECT_EQ(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kOpen);
  EXPECT_EQ(resilient.stats().breaker_opens, 2u);

  // Heal the fault; the following probe succeeds and closes the circuit.
  injector.set_enabled(false);
  const Outcome healed = resilient.predict(request);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kClosed);
}

TEST(ResilientPredictor, OpenBreakerOnPrimaryStillServesViaFallback) {
  FaultInjector injector(failing(Method::kLqn, 1.0));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.max_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_s = 1000.0;
  const ResilientPredictor resilient(*engine, options);

  // First request trips the lqn breaker but serves from hybrid.
  const Outcome first = resilient.predict(
      {Method::kLqn, "AppServF", browse_load(500.0)});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().served_by, Method::kHybrid);
  EXPECT_EQ(resilient.breaker_state(Method::kLqn, "AppServF"),
            BreakerState::kOpen);

  // Second request is rejected at the lqn breaker without an evaluation
  // (the injector sees no new lqn decision) and still serves.
  const std::uint64_t decisions_before = injector.decisions();
  const Outcome second = resilient.predict(
      {Method::kLqn, "AppServF", browse_load(600.0)});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().served_by, Method::kHybrid);
  EXPECT_TRUE(second.value().fallback);
  EXPECT_EQ(injector.decisions(), decisions_before);
  EXPECT_GE(resilient.stats().breaker_rejections, 1u);
}

TEST(ResilientPredictor, ConcurrentBreakerTransitionsStaySane) {
  // TSan target: many threads hammer one failing pair (racing the
  // closed->open->half-open transitions) while another pair succeeds.
  FaultInjector injector(failing(Method::kLqn, 1.0));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.max_retries = 0;
  options.serve_stale = false;
  options.fallback_enabled = false;
  options.breaker_failure_threshold = 3;
  options.breaker_cooldown_s = 0.0;  // maximize open/half-open churn
  const ResilientPredictor resilient(*engine, options);

  std::vector<PredictionRequest> storm;
  for (int i = 0; i < 400; ++i) {
    if (i % 2 == 0)
      storm.push_back({Method::kLqn, "AppServF",
                       browse_load(100.0 + i)});  // distinct: all misses
    else
      storm.push_back({Method::kHistorical, "AppServVF", browse_load(100.0)});
  }
  util::ThreadPool pool(8);
  const std::vector<Outcome> outcomes = resilient.predict_batch(storm, &pool);
  ASSERT_EQ(outcomes.size(), storm.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (storm[i].method == Method::kHistorical) {
      EXPECT_TRUE(outcomes[i].ok()) << i;
    } else {
      ASSERT_FALSE(outcomes[i].ok()) << i;
      const ErrorCode code = outcomes[i].error().code;
      EXPECT_TRUE(code == ErrorCode::kTransientFailure ||
                  code == ErrorCode::kCircuitOpen)
          << error_code_name(code);
    }
  }
  EXPECT_EQ(resilient.breaker_state(Method::kHistorical, "AppServVF"),
            BreakerState::kClosed);
  EXPECT_EQ(resilient.stats().requests, storm.size());
}

/// A stand-in for a calibrated method whose behaviour a test scripts:
/// fail with a breaker-worthy error, fail with a caller error that trips
/// no breaker, or answer. While held, a call first waits for release(),
/// so a test decides when a half-open probe ends instead of a clock.
class ScriptedPredictor : public core::Predictor {
 public:
  enum class Mode { kFail, kNotCalibrated, kAnswer };

  std::string name() const override { return "scripted"; }
  core::Prediction predict(const std::string&,
                           const core::WorkloadSpec&) const override {
    return {act(0.1), 10.0};
  }
  double predict_max_throughput_rps(const std::string&, double) const override {
    return act(100.0);
  }

  void set_mode(Mode mode) { mode_.store(mode); }
  void hold() { held_.store(true); }
  void release() {
    const std::lock_guard lock(mutex_);
    released_ = true;
    released_cv_.notify_all();
  }
  /// Calls that have waited (or are waiting) on the gate.
  int entered() const { return entered_.load(); }

 private:
  double act(double answer) const {
    if (held_.load()) {
      entered_.fetch_add(1);
      std::unique_lock lock(mutex_);
      released_cv_.wait(lock, [this] { return released_; });
    }
    switch (mode_.load()) {
      case Mode::kFail:
        throw std::runtime_error("scripted predictor: still broken");
      case Mode::kNotCalibrated:
        throw std::out_of_range("scripted predictor: not calibrated");
      case Mode::kAnswer:
        break;
    }
    return answer;
  }

  std::atomic<Mode> mode_{Mode::kFail};
  std::atomic<bool> held_{false};
  mutable std::atomic<int> entered_{0};
  mutable std::mutex mutex_;
  mutable std::condition_variable released_cv_;
  bool released_ = false;
};

TEST(ResilientPredictor, HalfOpenAdmitsOneProbeAndFastFailsTheRest) {
  // The half-open contract under *concurrent* callers: after the
  // cooldown exactly one request becomes the probe while every
  // simultaneous caller is rejected at the breaker with a typed
  // kCircuitOpen — never queued behind the probe, never admitted as a
  // second probe. The probe is held inside the predictor until every
  // other caller has its verdict, so the outcome does not depend on how
  // fast the callers run: the probe cannot fail, re-open the circuit and
  // let its cooldown expire again while a slow caller is still racing.
  ScriptedPredictor broken;
  Predictors& p = predictors();
  const BatchPredictor engine(&broken, &p.lqn, &p.hybrid);
  ResilienceOptions options;
  options.max_retries = 0;
  options.serve_stale = false;
  options.fallback_enabled = false;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_s = 0.05;
  const ResilientPredictor resilient(engine, options);
  const PredictionRequest request{Method::kHistorical, "AppServF",
                                  browse_load(250.0)};

  // Open the circuit, then dwell past the cooldown so the next wave
  // races for the single probe slot.
  ASSERT_FALSE(resilient.predict(request).ok());
  ASSERT_EQ(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  broken.hold();

  constexpr int kCallers = 8;
  std::atomic<int> ready{0};
  std::atomic<int> decided{0};
  std::atomic<bool> go{false};
  std::vector<ErrorCode> verdicts(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i)
    callers.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Outcome outcome = resilient.predict(request);
      if (!outcome.ok()) verdicts[i] = outcome.error().code;
      decided.fetch_add(1);
    });
  while (ready.load() < kCallers) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  // Let the probe finish once every other caller has its verdict, or as
  // soon as a second caller reaches the predictor (a second probe, which
  // the assertions below report). The deadline only bounds a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (decided.load() < kCallers - 1 && broken.entered() < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  broken.release();
  for (std::thread& caller : callers) caller.join();

  int probes = 0, rejected = 0;
  for (const ErrorCode code : verdicts) {
    if (code == ErrorCode::kInternal) {
      ++probes;
    } else {
      EXPECT_EQ(code, ErrorCode::kCircuitOpen) << error_code_name(code);
      ++rejected;
    }
  }
  EXPECT_EQ(probes, 1) << "the half-open slot admitted " << probes
                       << " probes";
  EXPECT_EQ(rejected, kCallers - 1);
  EXPECT_EQ(broken.entered(), 1);
  EXPECT_GE(resilient.stats().breaker_rejections,
            static_cast<std::uint64_t>(kCallers - 1));
  // The failed probe re-opened the circuit.
  EXPECT_EQ(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kOpen);
}

TEST(ResilientPredictor, BreakerProbesAgainAfterClosingAndReopening) {
  // A full cycle twice over: failures open the circuit, the probe after
  // the cooldown closes it, new failures open it again, and after that
  // cooldown a probe must be admitted once more. Every request is
  // distinct, so each one reaches the predictor.
  ScriptedPredictor method;
  Predictors& p = predictors();
  const BatchPredictor engine(&method, &p.lqn, &p.hybrid);
  ResilienceOptions options;
  options.max_retries = 0;
  options.serve_stale = false;
  options.fallback_enabled = false;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_s = 0.02;
  const ResilientPredictor resilient(engine, options);
  double clients = 100.0;
  const auto ask = [&] {
    clients += 1.0;
    return resilient.predict(
        {Method::kHistorical, "AppServF", browse_load(clients)});
  };
  const auto state = [&] {
    return resilient.breaker_state(Method::kHistorical, "AppServF");
  };
  const auto cool_down = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  };

  for (int cycle = 0; cycle < 2; ++cycle) {
    method.set_mode(ScriptedPredictor::Mode::kFail);
    for (int i = 0; i < 2; ++i) {
      const Outcome outcome = ask();
      ASSERT_FALSE(outcome.ok()) << cycle << "/" << i;
      EXPECT_EQ(outcome.error().code, ErrorCode::kInternal) << cycle;
    }
    ASSERT_EQ(state(), BreakerState::kOpen) << cycle;
    cool_down();
    // Still broken: the probe is admitted, fails and re-opens.
    const Outcome failed_probe = ask();
    ASSERT_FALSE(failed_probe.ok()) << cycle;
    EXPECT_EQ(failed_probe.error().code, ErrorCode::kInternal) << cycle;
    ASSERT_EQ(state(), BreakerState::kOpen) << cycle;
    cool_down();
    method.set_mode(ScriptedPredictor::Mode::kAnswer);
    ASSERT_TRUE(ask().ok()) << cycle;
    ASSERT_EQ(state(), BreakerState::kClosed) << cycle;
  }
  EXPECT_EQ(resilient.stats().breaker_opens, 4u);
}

TEST(ResilientPredictor, FlappingPairNeverStrandsTheBreaker) {
  // TSan target: a pair that fails most calls, hammered by many threads
  // with no cooldown, churns through every breaker transition while
  // probes race late callers. Once the storm ends and the pair heals,
  // the circuit must not be left half-open with nobody probing: the next
  // request is admitted and closes it.
  FaultInjector injector(failing(Method::kHistorical, 0.6));
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.max_retries = 0;
  options.serve_stale = false;
  options.fallback_enabled = false;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_s = 0.0;
  const ResilientPredictor resilient(*engine, options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        (void)resilient.predict({Method::kHistorical, "AppServF",
                                 browse_load(100.0 + t * kPerThread + i)});
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_NE(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kHalfOpen);

  injector.set_enabled(false);
  const Outcome healed = resilient.predict(
      {Method::kHistorical, "AppServF", browse_load(50.0)});
  ASSERT_TRUE(healed.ok()) << healed.error().to_string();
  EXPECT_EQ(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kClosed);
}

TEST(ResilientPredictor, ProbeWithoutVerdictLetsTheNextCallerProbeAtOnce) {
  // A probe that ends in a caller error says nothing about the pair: the
  // circuit goes back to open under its old stamp, so the next caller is
  // the probe without waiting out another cooldown.
  ScriptedPredictor method;
  Predictors& p = predictors();
  const BatchPredictor engine(&method, &p.lqn, &p.hybrid);
  ResilienceOptions options;
  options.max_retries = 0;
  options.serve_stale = false;
  options.fallback_enabled = false;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_s = 0.05;
  const ResilientPredictor resilient(engine, options);
  const auto ask = [&](double clients) {
    return resilient.predict(
        {Method::kHistorical, "AppServF", browse_load(clients)});
  };

  ASSERT_FALSE(ask(100.0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  method.set_mode(ScriptedPredictor::Mode::kNotCalibrated);
  const Outcome released = ask(101.0);
  ASSERT_FALSE(released.ok());
  EXPECT_EQ(released.error().code, ErrorCode::kNotCalibrated);
  EXPECT_EQ(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kOpen);
  method.set_mode(ScriptedPredictor::Mode::kAnswer);
  EXPECT_TRUE(ask(102.0).ok());
  EXPECT_EQ(resilient.breaker_state(Method::kHistorical, "AppServF"),
            BreakerState::kClosed);
  EXPECT_EQ(resilient.stats().breaker_opens, 1u);
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
  config.lqn.fail_probability = 1.0;
  config.hybrid.latency_s = 1000.0;
  FaultInjector injector(config);
  injector.set_enabled(false);
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.deadline_s = 0.050;
  options.max_retries = 0;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_s = 3600.0;
  const ResilientPredictor resilient(*engine, options);
  const PredictionRequest request{Method::kLqn, "AppServF",
                                  browse_load(800.0)};

  const Outcome lqn = resilient.predict(request);  // caches the lqn answer
  ASSERT_TRUE(lqn.ok());
  // Open the lqn breaker on another workload...
  injector.set_enabled(true);
  ASSERT_FALSE(
      resilient.predict({Method::kLqn, "AppServF", browse_load(900.0)}).ok());
  ASSERT_EQ(resilient.breaker_state(Method::kLqn, "AppServF"),
            BreakerState::kOpen);
  // ...so the next request is served fresh by hybrid...
  injector.set_enabled(false);
  const Outcome hybrid = resilient.predict(request);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(hybrid.value().served_by, Method::kHybrid);
  EXPECT_FALSE(hybrid.value().stale);

  // ...and when hybrid then misses its deadline, lqn's older answer is
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

TEST(ResilientPredictor, DeadlineNeverOpensTheBreaker) {
  FaultConfig config;
  config.lqn.latency_s = 1000.0;
  const FaultInjector injector(config);
  BatchOptions batch_options;
  batch_options.fault = &injector;
  const auto engine = make_engine(batch_options);
  ResilienceOptions options;
  options.deadline_s = 0.010;
  options.serve_stale = false;
  options.breaker_failure_threshold = 1;
  const ResilientPredictor resilient(*engine, options);
  for (int i = 0; i < 3; ++i) {
    const Outcome outcome = resilient.predict(
        {Method::kLqn, "AppServF", browse_load(100.0 + i)});
    ASSERT_FALSE(outcome.ok()) << i;
    EXPECT_EQ(outcome.error().code, ErrorCode::kDeadlineExceeded) << i;
  }
  // Slow is not broken: the breaker must not conflate the two.
  EXPECT_EQ(resilient.breaker_state(Method::kLqn, "AppServF"),
            BreakerState::kClosed);
  EXPECT_EQ(resilient.stats().breaker_opens, 0u);
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

}  // namespace
}  // namespace epp::svc
