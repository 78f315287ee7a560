#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace epp::core {
namespace {

/// A deterministic closed-system stand-in with known physics:
/// X = min(m*N, Xmax), R = max(base, N/Xmax - Z).
class StubPredictor final : public Predictor {
 public:
  std::string name() const override { return "stub"; }

  Prediction predict(const std::string&,
                     const WorkloadSpec& w) const override {
    const double n = w.total_clients();
    return {std::max(kBase, n / kMaxTput - w.think_time_s),
            std::min(n / (w.think_time_s + kBase), kMaxTput)};
  }
  double predict_max_throughput_rps(const std::string&, double) const override {
    return kMaxTput;
  }

  static constexpr double kBase = 0.05;
  static constexpr double kMaxTput = 186.0;
};

TEST(PredictorBase, CapacitySearchFindsSlaBoundary) {
  const StubPredictor stub;
  const double goal = 0.6;
  const CapacityResult result = stub.max_clients_for_goal("s", goal, 0.0, 7.0);
  // Ground truth: R = N/186 - 7 = 0.6 -> N = 186*7.6 = 1413.6 -> 1413.
  EXPECT_NEAR(result.max_clients, 1413.0, 1.0);
  EXPECT_GT(result.prediction_evaluations, 3);  // bisection, not closed form
  WorkloadSpec at;
  at.browse_clients = result.max_clients;
  EXPECT_LE(stub.predict_mean_rt_s("s", at), goal + 1e-9);
}

TEST(PredictorBase, CapacityZeroWhenGoalBelowBaseRt) {
  const StubPredictor stub;
  const CapacityResult result =
      stub.max_clients_for_goal("s", 0.01, 0.0, 7.0);
  EXPECT_DOUBLE_EQ(result.max_clients, 0.0);
}

TEST(PredictorBase, CapacityRejectsNonPositiveGoal) {
  const StubPredictor stub;
  EXPECT_THROW(stub.max_clients_for_goal("s", 0.0, 0.0, 7.0),
               std::invalid_argument);
}

TEST(PredictorBase, SaturationDetection) {
  const StubPredictor stub;
  WorkloadSpec light;
  light.browse_clients = 200.0;
  EXPECT_FALSE(stub.predicts_saturated("s", light, stub.predict("s", light)));
  WorkloadSpec heavy;
  heavy.browse_clients = 3000.0;
  EXPECT_TRUE(stub.predicts_saturated("s", heavy, stub.predict("s", heavy)));
}

// A percentile prediction costs one evaluation: the saturation check reads
// the prediction the mean came from instead of predicting again.
TEST(PredictorBase, PercentileIsOneEvaluation) {
  class CountingStub final : public Predictor {
   public:
    std::string name() const override { return "counting"; }
    Prediction predict(const std::string& server,
                       const WorkloadSpec& w) const override {
      ++evaluations;
      return stub.predict(server, w);
    }
    double predict_max_throughput_rps(const std::string& server,
                                      double buy_fraction) const override {
      return stub.predict_max_throughput_rps(server, buy_fraction);
    }
    StubPredictor stub;
    mutable int evaluations = 0;
  };
  const CountingStub counting;
  const StubPredictor stub;
  for (const double clients : {200.0, 3000.0}) {
    WorkloadSpec w;
    w.browse_clients = clients;
    counting.evaluations = 0;
    EXPECT_EQ(counting.predict_percentile_rt_s("s", w, 0.9, 0.2041),
              stub.predict_percentile_rt_s("s", w, 0.9, 0.2041));
    EXPECT_EQ(counting.evaluations, 1) << clients;
  }
}

TEST(PredictorBase, PercentileUsesRegime) {
  const StubPredictor stub;
  const double b = 0.2041;
  WorkloadSpec light;
  light.browse_clients = 200.0;
  // Pre-saturation: exponential with mean = base RT.
  EXPECT_NEAR(stub.predict_percentile_rt_s("s", light, 0.9, b),
              -StubPredictor::kBase * std::log(0.1), 1e-9);
  WorkloadSpec heavy;
  heavy.browse_clients = 3000.0;
  const double mean = stub.predict_mean_rt_s("s", heavy);
  // Post-saturation: double exponential located at the mean.
  EXPECT_NEAR(stub.predict_percentile_rt_s("s", heavy, 0.9, b),
              mean - b * std::log(0.2), 1e-9);
}

TEST(PredictorBase, WorkloadSpecHelpers) {
  WorkloadSpec w;
  w.browse_clients = 90.0;
  w.buy_clients = 10.0;
  EXPECT_DOUBLE_EQ(w.total_clients(), 100.0);
  EXPECT_DOUBLE_EQ(w.buy_fraction(), 0.1);
  const WorkloadSpec empty;
  EXPECT_DOUBLE_EQ(empty.buy_fraction(), 0.0);
}

}  // namespace
}  // namespace epp::core
