#include "rm/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "rm/manager.hpp"
#include "rm/tuning.hpp"

namespace epp::rm {
namespace {

/// Same physics stand-in as the manager tests (see rm_manager_test.cpp).
class PhysicsPredictor final : public core::Predictor {
 public:
  explicit PhysicsPredictor(double error_y = 1.0) : y_(error_y) {}
  std::string name() const override { return "physics"; }
  double max_power(const std::string& arch) const {
    static const std::map<std::string, double> kPower{
        {"AppServS", 86.0}, {"AppServF", 186.0}, {"AppServVF", 320.0}};
    return kPower.at(arch);
  }
  double predict_max_throughput_rps(const std::string& arch,
                                    double buy_fraction) const override {
    return max_power(arch) / (1.0 + 0.9 * buy_fraction);
  }
  core::Prediction predict(const std::string& arch,
                           const core::WorkloadSpec& w) const override {
    const double x_max = predict_max_throughput_rps(arch, w.buy_fraction());
    return {std::max(0.020, y_ * w.total_clients() / x_max - w.think_time_s),
            std::min(y_ * w.total_clients() / (w.think_time_s + 0.020), x_max)};
  }

 private:
  double y_;
};

RuntimeOutcome run_scenario(double slack, double planner_error, double load,
                            bool optimize = true) {
  const PhysicsPredictor planner(planner_error);
  const PhysicsPredictor truth(1.0);
  const ResourceManager manager(planner, {slack, 7.0, 1.0});
  const auto classes = standard_classes(load);
  const auto pool = standard_pool();
  const Allocation a = manager.allocate(classes, pool);
  RuntimeOptions options;
  options.runtime_optimization = optimize;
  return evaluate_runtime(a, classes, pool, truth, options);
}

TEST(Runtime, PerfectPredictorNoFailures) {
  for (double load : {2000.0, 6000.0, 10000.0}) {
    const RuntimeOutcome o = run_scenario(1.0, 1.0, load);
    EXPECT_NEAR(o.sla_failure_pct, 0.0, 0.1) << load;
    EXPECT_LE(o.server_usage_pct, 100.0);
  }
}

TEST(Runtime, UniformErrorCompensatedBySlackEqualY) {
  // The paper: "setting the slack to y results in 0% SLA failures below
  // 100% server usage". y = 1.075 mimics the reported average error.
  const double y = 1.075;
  for (double load : {3000.0, 7000.0, 11000.0}) {
    const RuntimeOutcome with_slack = run_scenario(y, 1.0 / y, load);
    EXPECT_NEAR(with_slack.sla_failure_pct, 0.0, 0.2) << load;
  }
}

TEST(Runtime, OptimisticErrorWithoutSlackCausesFailures) {
  // Planner thinks servers hold more than they do (predicted RT for N
  // clients equals true RT at 0.85*N), no slack: rejections appear.
  const RuntimeOutcome o = run_scenario(1.0, 0.85, 11000.0, false);
  EXPECT_GT(o.sla_failure_pct, 1.0);
}

TEST(Runtime, RuntimeOptimizationAbsorbsOverflow) {
  const RuntimeOutcome raw = run_scenario(1.0, 0.85, 11000.0, false);
  const RuntimeOutcome optimized = run_scenario(1.0, 0.85, 11000.0, true);
  EXPECT_LE(optimized.sla_failure_pct, raw.sla_failure_pct);
}

TEST(Runtime, UsageGrowsWithLoad) {
  double prev = 0.0;
  for (double load : {1000.0, 4000.0, 8000.0, 12000.0, 16000.0}) {
    const RuntimeOutcome o = run_scenario(1.0, 1.0, load);
    EXPECT_GE(o.server_usage_pct, prev - 1e-9) << load;
    prev = o.server_usage_pct;
  }
}

TEST(Runtime, ZeroSlackAllocatesNothing) {
  const RuntimeOutcome o = run_scenario(0.0, 1.0, 5000.0);
  EXPECT_NEAR(o.sla_failure_pct, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(o.server_usage_pct, 0.0);
  EXPECT_EQ(o.servers_used, 0u);
}

TEST(Runtime, RejectionThresholdTightensCapacity) {
  const PhysicsPredictor truth(1.0);
  const PhysicsPredictor planner(1.0);
  const ResourceManager manager(planner, {1.0, 7.0, 1.0});
  const auto classes = standard_classes(12000.0);
  const auto pool = standard_pool();
  const Allocation a = manager.allocate(classes, pool);
  RuntimeOptions strict;
  strict.rejection_threshold = 0.25;  // reject within 25% of the goal
  strict.runtime_optimization = false;
  const RuntimeOutcome tight = evaluate_runtime(a, classes, pool, truth, strict);
  RuntimeOptions loose;
  loose.runtime_optimization = false;
  const RuntimeOutcome exact = evaluate_runtime(a, classes, pool, truth, loose);
  EXPECT_GE(tight.sla_failure_pct, exact.sla_failure_pct);
}

TEST(Runtime, MismatchedAllocationRejected) {
  const PhysicsPredictor truth(1.0);
  Allocation a;
  a.per_server.resize(3);
  EXPECT_THROW(
      evaluate_runtime(a, standard_classes(100.0), standard_pool(), truth, {}),
      std::invalid_argument);
}

TEST(Tuning, SweepLoadsProducesMonotoneUsage) {
  const PhysicsPredictor planner(1.0);
  const PhysicsPredictor truth(1.0);
  TuningConfig config;
  config.planner = &planner;
  config.truth = &truth;
  config.pool = standard_pool();
  config.loads = {2000.0, 5000.0, 8000.0, 11000.0, 14000.0};
  const auto points = sweep_loads(config, 1.0);
  ASSERT_EQ(points.size(), 5u);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].server_usage_pct, points[i - 1].server_usage_pct);
}

TEST(Tuning, ReducingSlackTradesFailuresForUsageSaving) {
  const PhysicsPredictor planner(0.93);  // modestly optimistic planner
  const PhysicsPredictor truth(1.0);
  TuningConfig config;
  config.planner = &planner;
  config.truth = &truth;
  config.pool = standard_pool();
  config.loads = {2000.0, 5000.0, 8000.0, 11000.0};
  // Disable the spare-capacity optimisation so the planner's optimism
  // shows up as failures rather than being silently absorbed.
  config.runtime.runtime_optimization = false;
  const auto zero = find_min_zero_failure_slack(
      config, {0.9, 1.0, 1.05, 1.1, 1.15, 1.2});
  EXPECT_GT(zero.slack, 1.0);  // optimism needs positive slack
  const auto curve =
      sweep_slack(config, {zero.slack, 0.9, 0.6, 0.3}, zero.su_max_pct);
  // Failures increase and usage saving grows as slack shrinks.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].avg_sla_failure_pct,
              curve[i - 1].avg_sla_failure_pct - 1e-9);
    EXPECT_GE(curve[i].avg_usage_saving_pct,
              curve[i - 1].avg_usage_saving_pct - 1e-9);
  }
  EXPECT_NEAR(curve.front().avg_sla_failure_pct, 0.0, 0.1);
}

TEST(Tuning, ConfigValidation) {
  TuningConfig config;
  EXPECT_THROW(sweep_loads(config, 1.0), std::invalid_argument);
  const PhysicsPredictor p(1.0);
  config.planner = &p;
  config.truth = &p;
  EXPECT_THROW(sweep_loads(config, 1.0), std::invalid_argument);  // no pool
  config.pool = standard_pool();
  EXPECT_THROW(sweep_loads(config, 1.0), std::invalid_argument);  // no loads
}

}  // namespace
}  // namespace epp::rm
