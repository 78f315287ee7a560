// Parameterized property sweeps over the resource manager: allocation
// conservation, priority ordering and slack monotonicity across a grid of
// loads and slack levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "rm/manager.hpp"
#include "rm/runtime.hpp"

namespace epp::rm {
namespace {

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

struct Case {
  double load;
  double slack;
};

class AllocationProperties : public ::testing::TestWithParam<Case> {
 protected:
  Allocation allocate() const {
    const Case c = GetParam();
    const PhysicsPredictor predictor;
    const ResourceManager manager(predictor, {c.slack, 7.0, 1.0});
    return manager.allocate(standard_classes(c.load), standard_pool());
  }
};

TEST_P(AllocationProperties, ConservesScaledClients) {
  const Case c = GetParam();
  const Allocation a = allocate();
  double placed = 0.0;
  for (const auto& server : a.per_server)
    for (const auto& [_, clients] : server) placed += clients;
  EXPECT_NEAR(placed + a.unallocated_scaled, c.slack * c.load,
              3.0 + 1e-6 * c.load);
}

TEST_P(AllocationProperties, NoNegativeAllocations) {
  const Allocation a = allocate();
  for (const auto& server : a.per_server)
    for (const auto& [name, clients] : server) {
      EXPECT_GE(clients, 0.0) << name;
    }
  EXPECT_GE(a.unallocated_scaled, 0.0);
}

TEST_P(AllocationProperties, StrictClassesNeverRejectedBeforeLooseOnes) {
  const Allocation a = allocate();
  // If anything is unallocated, the strictest class may only appear there
  // when every looser class is also (fully) affected.
  if (a.unallocated_by_class.count("buy")) {
    EXPECT_TRUE(a.unallocated_by_class.count("browse_low"));
    EXPECT_TRUE(a.unallocated_by_class.count("browse_high"));
  }
  if (a.unallocated_by_class.count("browse_high")) {
    EXPECT_TRUE(a.unallocated_by_class.count("browse_low"));
  }
}

TEST_P(AllocationProperties, RuntimeMetricsWellFormed) {
  const Case c = GetParam();
  const Allocation a = allocate();
  const PhysicsPredictor truth;
  const RuntimeOutcome o =
      evaluate_runtime(a, standard_classes(c.load), standard_pool(), truth, {});
  EXPECT_GE(o.sla_failure_pct, 0.0);
  EXPECT_LE(o.sla_failure_pct, 100.0 + 1e-9);
  EXPECT_GE(o.server_usage_pct, 0.0);
  EXPECT_LE(o.server_usage_pct, 100.0 + 1e-9);
  EXPECT_LE(o.rejected_clients, o.total_clients + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AllocationProperties,
    ::testing::Values(Case{500.0, 1.0}, Case{3000.0, 1.0}, Case{3000.0, 1.2},
                      Case{8000.0, 0.8}, Case{12000.0, 1.1},
                      Case{20000.0, 1.0}, Case{30000.0, 1.0},
                      Case{8000.0, 0.3}));

class SlackMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(SlackMonotonicity, MoreSlackNeverIncreasesFailures) {
  const double load = GetParam();
  const PhysicsPredictor planner(0.9);  // optimistic planner
  const PhysicsPredictor truth;
  RuntimeOptions options;
  options.runtime_optimization = false;
  double prev_failures = 1e9;
  for (double slack : {0.8, 0.9, 1.0, 1.1, 1.2, 1.3}) {
    const ResourceManager manager(planner, {slack, 7.0, 1.0});
    const auto classes = standard_classes(load);
    const Allocation a = manager.allocate(classes, standard_pool());
    const RuntimeOutcome o =
        evaluate_runtime(a, classes, standard_pool(), truth, options);
    EXPECT_LE(o.sla_failure_pct, prev_failures + 0.75)
        << "slack=" << slack << " load=" << load;
    prev_failures = o.sla_failure_pct;
  }
}

INSTANTIATE_TEST_SUITE_P(Loads, SlackMonotonicity,
                         ::testing::Values(2000.0, 6000.0, 10000.0, 14000.0));

}  // namespace
}  // namespace epp::rm
