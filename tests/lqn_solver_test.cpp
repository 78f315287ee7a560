#include "lqn/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/trade_model.hpp"

namespace epp::lqn {
namespace {

core::TradeCalibration test_calibration() {
  core::TradeCalibration cal;
  cal.browse = {0.005376, 0.00083, 0.00040, 1.14};
  cal.buy = {0.010455, 0.00161, 0.00050, 2.0};
  return cal;
}

SolveResult solve_typical(double clients, SolverOptions options = {}) {
  const auto model = core::build_trade_lqn(test_calibration(), core::arch_f(),
                                           {clients, 0.0, 7.0});
  return LayeredSolver(options).solve(model);
}

TEST(LayeredSolver, LightLoadResponseNearServiceTime) {
  const SolveResult r = solve_typical(10);
  // At 10 clients there is essentially no contention: R ~= app demand +
  // 1.14 * (db cpu + disk).
  const double base = 0.005376 + 1.14 * (0.00083 + 0.00040);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.response_time_s("browse_clients"), base, 0.35 * base);
  EXPECT_NEAR(r.throughput_rps("browse_clients"), 10.0 / 7.0, 0.05);
}

TEST(LayeredSolver, LittlesLawHoldsAcrossLoads) {
  for (double n : {100.0, 800.0, 1500.0, 2600.0}) {
    const SolveResult r = solve_typical(n);
    const auto& c = r.cls("browse_clients");
    EXPECT_NEAR(c.throughput_rps * (7.0 + c.response_time_s), n, 1e-3 * n)
        << n;
  }
}

TEST(LayeredSolver, SaturationThroughputMatchesBottleneckBound) {
  const SolveResult r = solve_typical(3000);
  EXPECT_NEAR(r.throughput_rps("browse_clients"), 1.0 / 0.005376, 4.0);
  EXPECT_GT(r.processor_utilization.at("app_cpu"), 0.97);
}

TEST(LayeredSolver, MaxThroughputBound) {
  const auto model = core::build_trade_lqn(test_calibration(), core::arch_f(),
                                           {1000.0, 0.0, 7.0});
  const double bound = LayeredSolver().max_throughput_bound_rps(model);
  EXPECT_NEAR(bound, 186.0, 2.0);
}

TEST(LayeredSolver, FasterServerRespondsFasterAndScalesFurther) {
  const auto cal = test_calibration();
  const auto slow = core::build_trade_lqn(cal, core::arch_s(), {1000, 0, 7.0});
  const auto fast = core::build_trade_lqn(cal, core::arch_vf(), {1000, 0, 7.0});
  LayeredSolver solver;
  const SolveResult rs = solver.solve(slow);
  const SolveResult rf = solver.solve(fast);
  EXPECT_GT(rs.response_time_s("browse_clients"),
            rf.response_time_s("browse_clients"));
  EXPECT_NEAR(solver.max_throughput_bound_rps(slow), 86.0, 2.0);
  EXPECT_NEAR(solver.max_throughput_bound_rps(fast), 320.0, 4.0);
}

TEST(LayeredSolver, MixedWorkloadBuySlower) {
  const auto model = core::build_trade_lqn(test_calibration(), core::arch_f(),
                                           {750.0, 250.0, 7.0});
  const SolveResult r = LayeredSolver().solve(model);
  EXPECT_GT(r.response_time_s("buy_clients"),
            r.response_time_s("browse_clients"));
  EXPECT_GT(r.total_throughput_rps(), 0.0);
  EXPECT_GT(r.mean_response_time_s(), 0.0);
}

TEST(LayeredSolver, MixedWorkloadLowersMaxThroughput) {
  const auto cal = test_calibration();
  LayeredSolver solver;
  const auto pure = core::build_trade_lqn(cal, core::arch_f(), {1000, 0, 7.0});
  const auto mixed = core::build_trade_lqn(cal, core::arch_f(), {750, 250, 7.0});
  EXPECT_LT(solver.max_throughput_bound_rps(mixed),
            solver.max_throughput_bound_rps(pure));
}

TEST(LayeredSolver, ResponseTimeMonotoneInPopulation) {
  double prev = 0.0;
  for (double n : {200.0, 600.0, 1000.0, 1400.0, 1800.0, 2200.0}) {
    const double rt = solve_typical(n).response_time_s("browse_clients");
    EXPECT_GE(rt, prev - 1e-6) << n;
    prev = rt;
  }
}

TEST(LayeredSolver, TinyThreadPoolCapsThroughput) {
  // Shrink the app server to 1 thread: the pool (holding time ~ service
  // incl. db round trip) becomes the bottleneck, not the CPU.
  auto cal = test_calibration();
  core::ServerArch arch = core::arch_f();
  arch.app_concurrency = 1;
  const auto model = core::build_trade_lqn(cal, arch, {2000.0, 0.0, 7.0});
  LayeredSolver solver;
  const SolveResult r = solver.solve(model);
  const double holding =
      0.005376 + 1.14 * (0.00083 + 0.00040);  // light-load service time
  EXPECT_LT(r.throughput_rps("browse_clients"), 1.05 / holding);
}

TEST(LayeredSolver, CoarseCriterionStillSolves) {
  SolverOptions options;
  options.convergence_tol_s = 0.020;  // the paper's setting
  const SolveResult r = solve_typical(1500, options);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.response_time_s("browse_clients"), 0.0);
}

TEST(LayeredSolver, ReportsSolveTimeAndIterations) {
  const SolveResult r = solve_typical(500);
  EXPECT_GT(r.iterations, 0);
  EXPECT_GE(r.solve_time_s, 0.0);
  EXPECT_LT(r.solve_time_s, 5.0);
}

TEST(LayeredSolver, UnknownClassLookupThrows) {
  const SolveResult r = solve_typical(100);
  EXPECT_THROW(r.cls("nope"), std::out_of_range);
}

TEST(LayeredSolver, InvalidModelRejected) {
  Model empty;
  EXPECT_THROW(LayeredSolver().solve(empty), std::invalid_argument);
}

}  // namespace
}  // namespace epp::lqn
