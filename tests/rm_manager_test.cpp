#include "rm/manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "rm/runtime.hpp"
#include "rm/types.hpp"

namespace epp::rm {
namespace {

/// Closed-system physics with a tunable uniform predictive error y:
/// predicted values equal the true ones at y * N clients ("multiplying the
/// actual number of clients by y gives the prediction").
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
    // Buy requests are ~1.9x as expensive, shrinking max throughput.
    return max_power(arch) / (1.0 + 0.9 * buy_fraction);
  }

  core::Prediction predict(const std::string& arch,
                           const core::WorkloadSpec& w) const override {
    const double x_max = predict_max_throughput_rps(arch, w.buy_fraction());
    const double n = y_ * w.total_clients();
    return {std::max(kBase, n / x_max - w.think_time_s),
            std::min(n / (w.think_time_s + kBase), x_max)};
  }

  static constexpr double kBase = 0.020;

 private:
  double y_;
};

double total_allocated(const Allocation& a) {
  double total = 0.0;
  for (const auto& server : a.per_server)
    for (const auto& [_, clients] : server) total += clients;
  return total;
}

TEST(StandardScenario, PoolAndClassesMatchPaper) {
  const auto pool = standard_pool();
  ASSERT_EQ(pool.size(), 16u);
  EXPECT_EQ(std::count_if(pool.begin(), pool.end(),
                          [](const PoolServer& s) { return s.arch == "AppServS"; }),
            8);
  const auto classes = standard_classes(10000.0);
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_DOUBLE_EQ(classes[0].clients, 1000.0);   // 10% buy
  EXPECT_DOUBLE_EQ(classes[0].rt_goal_s, 0.150);
  EXPECT_DOUBLE_EQ(classes[1].clients, 4500.0);
  EXPECT_DOUBLE_EQ(classes[2].clients, 4500.0);
}

TEST(ResourceManager, ConservesClients) {
  const PhysicsPredictor predictor;
  const ResourceManager manager(predictor, {1.0, 7.0, 1.0});
  const auto classes = standard_classes(6000.0);
  const Allocation a = manager.allocate(classes, standard_pool());
  EXPECT_NEAR(total_allocated(a) + a.unallocated_scaled, 6000.0, 3.0);
}

TEST(ResourceManager, SlackScalesTheAllocatedWorkload) {
  const PhysicsPredictor predictor;
  const ResourceManager manager(predictor, {1.1, 7.0, 1.0});
  const auto classes = standard_classes(4000.0);
  const Allocation a = manager.allocate(classes, standard_pool());
  EXPECT_NEAR(total_allocated(a) + a.unallocated_scaled, 1.1 * 4000.0, 3.0);
  EXPECT_DOUBLE_EQ(a.slack, 1.1);
}

TEST(ResourceManager, LowestPriorityRejectedFirstWhenOverloaded) {
  const PhysicsPredictor predictor;
  const ResourceManager manager(predictor, {1.0, 7.0, 1.0});
  // Tiny pool: one slow server can host the buy class but not the browse
  // classes of a 3000-client workload.
  const std::vector<PoolServer> pool{{"AppServS", 86.0}};
  const auto classes = standard_classes(3000.0);
  const Allocation a = manager.allocate(classes, pool);
  ASSERT_GT(a.unallocated_scaled, 0.0);
  // The strictest class (buy, 150 ms) must be fully placed before any
  // looser class; the loosest (600 ms) bears the rejections.
  EXPECT_EQ(a.unallocated_by_class.count("buy"), 0u);
  EXPECT_GT(a.unallocated_by_class.at("browse_low"), 0.0);
}

TEST(ResourceManager, LastServerExceptionPicksSmallestSufficient) {
  const PhysicsPredictor predictor;
  const ResourceManager manager(predictor, {1.0, 7.0, 1.0});
  // A workload small enough to fit on the slow server: the greedy rule
  // would pick the VF server (most capacity), the exception takes S.
  const std::vector<PoolServer> pool{{"AppServVF", 320.0}, {"AppServS", 86.0}};
  const std::vector<ServiceClassSpec> classes{{"browse", 0.6, false, 100.0}};
  const Allocation a = manager.allocate(classes, pool);
  EXPECT_DOUBLE_EQ(a.per_server[0].count("browse") ? a.per_server[0].at("browse") : 0.0, 0.0);
  EXPECT_NEAR(a.per_server[1].at("browse"), 100.0, 1e-6);
}

TEST(ResourceManager, GreedyPicksLargestWhenNoneSufficient) {
  const PhysicsPredictor predictor;
  const ResourceManager manager(predictor, {1.0, 7.0, 1.0});
  const std::vector<PoolServer> pool{{"AppServS", 86.0}, {"AppServVF", 320.0}};
  // Needs both servers; the first chunk must land on the VF server.
  const std::vector<ServiceClassSpec> classes{{"browse", 0.6, false, 3000.0}};
  const Allocation a = manager.allocate(classes, pool);
  EXPECT_GT(a.per_server[1].at("browse"), a.per_server[0].at("browse"));
}

TEST(ResourceManager, CapacityProbeRespectsStricterGoal) {
  const PhysicsPredictor predictor;
  const ResourceManager manager(predictor, {1.0, 7.0, 1.0});
  const PoolServer server{"AppServF", 186.0};
  const std::vector<ServiceClassSpec> classes{
      {"strict", 0.15, false, 0.0}, {"loose", 0.60, false, 0.0}};
  int evals = 0;
  const std::map<std::string, double> empty;
  const double cap_strict =
      manager.additional_capacity(server, empty, classes, classes[0], evals);
  const double cap_loose =
      manager.additional_capacity(server, empty, classes, classes[1], evals);
  EXPECT_LT(cap_strict, cap_loose);
  EXPECT_GT(cap_strict, 0.0);
  EXPECT_GT(evals, 0);
}

TEST(ResourceManager, CapacityShrinksWithExistingAllocation) {
  const PhysicsPredictor predictor;
  const ResourceManager manager(predictor, {1.0, 7.0, 1.0});
  const PoolServer server{"AppServF", 186.0};
  const std::vector<ServiceClassSpec> classes{{"browse", 0.60, false, 0.0}};
  int evals = 0;
  const std::map<std::string, double> empty;
  const std::map<std::string, double> half{{"browse", 600.0}};
  const double cap_empty =
      manager.additional_capacity(server, empty, classes, classes[0], evals);
  const double cap_half =
      manager.additional_capacity(server, half, classes, classes[0], evals);
  EXPECT_NEAR(cap_empty - cap_half, 600.0, 2.0);
}

TEST(ResourceManager, MixedClassOnServerBindsToStrictestGoal) {
  const PhysicsPredictor predictor;
  const ResourceManager manager(predictor, {1.0, 7.0, 1.0});
  const PoolServer server{"AppServF", 186.0};
  const std::vector<ServiceClassSpec> classes{
      {"buy", 0.15, true, 0.0}, {"browse", 0.60, false, 0.0}};
  int evals = 0;
  const std::map<std::string, double> with_buy{{"buy", 200.0}};
  const std::map<std::string, double> empty;
  const double cap = manager.additional_capacity(server, with_buy, classes,
                                                 classes[1], evals);
  // Browse capacity on a server already hosting buy clients is limited by
  // the buy class's 150 ms goal, so it is far below the empty-server
  // browse capacity.
  const double cap_browse_only =
      manager.additional_capacity(server, empty, classes, classes[1], evals);
  EXPECT_LT(cap, 0.7 * cap_browse_only);
}

TEST(ResourceManager, RejectsBadOptions) {
  const PhysicsPredictor predictor;
  EXPECT_THROW(ResourceManager(predictor, {-0.1, 7.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(ResourceManager(predictor, {1.0, 7.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace epp::rm
