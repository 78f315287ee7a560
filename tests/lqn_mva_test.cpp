#include "lqn/mva.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace epp::lqn {
namespace {

ClosedNetwork repairman(double n, double think, double demand) {
  ClosedNetwork net;
  net.stations = {{"cpu", StationKind::kQueueing, 1}};
  net.class_names = {"clients"};
  net.population = {n};
  net.think_time_s = {think};
  net.demands = {{demand}};
  return net;
}

/// Closed-form check: N=1 client, think Z, demand D -> R = D, X = 1/(Z+D).
TEST(ExactMva, SingleCustomerClosedForm) {
  const MvaResult r = solve_exact_single_class(repairman(1, 2.0, 0.5));
  EXPECT_NEAR(r.response_time_s[0], 0.5, 1e-12);
  EXPECT_NEAR(r.throughput_rps[0], 1.0 / 2.5, 1e-12);
  EXPECT_NEAR(r.station_utilization[0], 0.2, 1e-12);
}

/// Machine repairman with N=2: R(2) = D(1 + Q(1)) with Q(1)=X(1)R(1).
TEST(ExactMva, TwoCustomersRecursion) {
  const double z = 2.0, d = 0.5;
  const double r1 = d;
  const double x1 = 1.0 / (z + r1);
  const double q1 = x1 * r1;
  const double r2 = d * (1.0 + q1);
  const MvaResult r = solve_exact_single_class(repairman(2, z, d));
  EXPECT_NEAR(r.response_time_s[0], r2, 1e-12);
}

TEST(ExactMva, SaturationThroughputApproachesBound) {
  const MvaResult r = solve_exact_single_class(repairman(500, 1.0, 0.01));
  EXPECT_NEAR(r.throughput_rps[0], 100.0, 0.5);
  EXPECT_GT(r.station_utilization[0], 0.99);
  // Little's law: R = N/X - Z.
  EXPECT_NEAR(r.response_time_s[0], 500.0 / r.throughput_rps[0] - 1.0, 1e-9);
}

TEST(ExactMva, DelayStationHasNoQueueing) {
  ClosedNetwork net = repairman(50, 1.0, 0.01);
  net.stations[0].kind = StationKind::kDelay;
  const MvaResult r = solve_exact_single_class(net);
  EXPECT_NEAR(r.response_time_s[0], 0.01, 1e-12);  // pure delay
}

TEST(ExactMva, MultiServerBetweenQueueAndDelay) {
  // An m-server station must respond no slower than a delay station and no
  // faster than... wait, the other way: queueing >= multi >= delay.
  ClosedNetwork queue_net = repairman(40, 0.5, 0.02);
  ClosedNetwork multi_net = queue_net;
  multi_net.stations[0].kind = StationKind::kMultiServer;
  multi_net.stations[0].servers = 4;
  ClosedNetwork delay_net = queue_net;
  delay_net.stations[0].kind = StationKind::kDelay;
  const double r_queue = solve_exact_single_class(queue_net).response_time_s[0];
  const double r_multi = solve_exact_single_class(multi_net).response_time_s[0];
  const double r_delay = solve_exact_single_class(delay_net).response_time_s[0];
  EXPECT_LE(r_multi, r_queue + 1e-12);
  EXPECT_GE(r_multi, r_delay - 1e-12);
}

TEST(ExactMva, RejectsMultiClassOrFractional) {
  ClosedNetwork net = repairman(2.5, 1.0, 0.1);
  EXPECT_THROW(solve_exact_single_class(net), std::invalid_argument);
  ClosedNetwork two = repairman(2, 1.0, 0.1);
  two.population.push_back(3);
  two.think_time_s.push_back(1.0);
  two.demands.push_back({0.2});
  two.class_names.push_back("other");
  EXPECT_THROW(solve_exact_single_class(two), std::invalid_argument);
}

TEST(BardSchweitzer, MatchesExactWithinTolerance) {
  for (int n : {1, 5, 20, 100, 400}) {
    const ClosedNetwork net = repairman(n, 2.0, 0.05);
    const MvaResult exact = solve_exact_single_class(net);
    const MvaResult approx = solve_bard_schweitzer(net);
    EXPECT_TRUE(approx.converged);
    // Bard-Schweitzer is known-good to a few percent on balanced networks.
    EXPECT_NEAR(approx.throughput_rps[0], exact.throughput_rps[0],
                0.03 * exact.throughput_rps[0])
        << "N=" << n;
    EXPECT_NEAR(approx.response_time_s[0], exact.response_time_s[0],
                0.10 * exact.response_time_s[0] + 1e-6)
        << "N=" << n;
  }
}

TEST(BardSchweitzer, FractionalPopulationInterpolates) {
  const double r2 = solve_bard_schweitzer(repairman(2.0, 1.0, 0.1)).response_time_s[0];
  const double r25 = solve_bard_schweitzer(repairman(2.5, 1.0, 0.1)).response_time_s[0];
  const double r3 = solve_bard_schweitzer(repairman(3.0, 1.0, 0.1)).response_time_s[0];
  EXPECT_GT(r25, r2);
  EXPECT_LT(r25, r3);
}

TEST(BardSchweitzer, MultiClassLittlesLawHolds) {
  ClosedNetwork net;
  net.stations = {{"cpu", StationKind::kQueueing, 1},
                  {"db", StationKind::kQueueing, 1}};
  net.class_names = {"browse", "buy"};
  net.population = {100.0, 20.0};
  net.think_time_s = {7.0, 7.0};
  net.demands = {{0.0054, 0.0009}, {0.0105, 0.0032}};
  const MvaResult r = solve_bard_schweitzer(net);
  EXPECT_TRUE(r.converged);
  for (std::size_t c = 0; c < 2; ++c) {
    const double n = net.population[c];
    EXPECT_NEAR(r.throughput_rps[c] * (net.think_time_s[c] + r.response_time_s[c]),
                n, 1e-6 * n);
  }
  // Utilisation additivity: U = sum_c X_c * D_c.
  EXPECT_NEAR(r.station_utilization[0],
              r.throughput_rps[0] * 0.0054 + r.throughput_rps[1] * 0.0105,
              1e-12);
}

TEST(BardSchweitzer, UtilizationNeverExceedsOne) {
  for (double n : {50.0, 500.0, 5000.0}) {
    const MvaResult r = solve_bard_schweitzer(repairman(n, 1.0, 0.01));
    EXPECT_LE(r.station_utilization[0], 1.0 + 1e-9) << n;
  }
}

TEST(BardSchweitzer, CoarseToleranceStopsEarlier) {
  const ClosedNetwork net = repairman(2000, 7.0, 0.0054);
  MvaOptions fine;
  fine.rt_tolerance_s = 1e-9;
  MvaOptions coarse;
  coarse.rt_tolerance_s = 0.020;  // the paper's LQNS criterion
  const MvaResult rf = solve_bard_schweitzer(net, fine);
  const MvaResult rc = solve_bard_schweitzer(net, coarse);
  EXPECT_LT(rc.iterations, rf.iterations);
  EXPECT_TRUE(rc.converged);
  // The coarse answer differs from the fine one by up to ~the criterion.
  EXPECT_NEAR(rc.response_time_s[0], rf.response_time_s[0], 0.15);
}

TEST(ClosedNetwork, CheckRejectsMalformedShapes) {
  ClosedNetwork net = repairman(2, 1.0, 0.1);
  net.demands[0].push_back(0.5);  // extra column
  EXPECT_THROW(net.check(), std::invalid_argument);
  ClosedNetwork neg = repairman(2, 1.0, 0.1);
  neg.demands[0][0] = -0.1;
  EXPECT_THROW(neg.check(), std::invalid_argument);
  ClosedNetwork badpop = repairman(0, 1.0, 0.1);
  EXPECT_THROW(badpop.check(), std::invalid_argument);
}

}  // namespace
}  // namespace epp::lqn
