#include "sim/trade/testbed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "util/rng.hpp"

namespace epp::sim::trade {
namespace {

// ---------------------------------------------------------------------------
// Closed-network validation: engine + PS resource against exact MVA for the
// machine-repairman model (N clients, think Z, single PS server, demand D).
// Product-form theory gives the exact mean response time via the MVA
// recursion R(n) = D (1 + Q(n-1)), X = n / (Z + R), Q = X R.
// ---------------------------------------------------------------------------
double repairman_mva_rt(int n_clients, double think, double demand) {
  double q = 0.0, r = 0.0;
  for (int n = 1; n <= n_clients; ++n) {
    r = demand * (1.0 + q);
    const double x = static_cast<double>(n) / (think + r);
    q = x * r;
  }
  return r;
}

double simulate_repairman_rt(int n_clients, double think, double demand,
                             std::uint64_t seed) {
  Engine engine;
  PsResource cpu(engine, 1.0);
  util::Rng rng(seed);
  double total_rt = 0.0;
  long completions = 0;
  const double warmup = 200.0;
  const double end = 2200.0;

  std::vector<util::Rng> clients;
  clients.reserve(n_clients);
  for (int i = 0; i < n_clients; ++i) clients.push_back(rng.spawn());

  // Client i's think timer fires issue(i) through raw dispatch.
  using Issue = std::function<void(std::uint64_t)>;
  Issue issue;
  const auto think_then_go = [&](std::uint64_t i) {
    engine.schedule_raw_after(
        clients[i].exponential(think),
        [](void* ctx, std::uint64_t client) {
          (*static_cast<Issue*>(ctx))(client);
        },
        &issue, i);
  };
  issue = [&](std::uint64_t i) {
    const double issued = engine.now();
    cpu.add_job(clients[i].exponential(demand), [&, i, issued] {
      if (issued >= warmup) {
        total_rt += engine.now() - issued;
        ++completions;
      }
      think_then_go(i);
    });
  };
  for (std::uint64_t i = 0; i < clients.size(); ++i) think_then_go(i);
  engine.run_until(end);
  return completions ? total_rt / static_cast<double>(completions) : 0.0;
}

class RepairmanParam : public ::testing::TestWithParam<int> {};

TEST_P(RepairmanParam, SimMatchesExactMva) {
  const int n = GetParam();
  const double think = 2.0, demand = 0.1;
  const double analytic = repairman_mva_rt(n, think, demand);
  const double simulated = simulate_repairman_rt(n, think, demand, 1234);
  EXPECT_NEAR(simulated, analytic, std::max(0.05 * analytic, 0.004))
      << "N=" << n;
}

INSTANTIATE_TEST_SUITE_P(Populations, RepairmanParam,
                         ::testing::Values(1, 5, 10, 20, 40));

// ---------------------------------------------------------------------------
// Trade testbed behaviour.
// ---------------------------------------------------------------------------

TEST(Testbed, DeterministicForFixedSeed) {
  TestbedConfig config = typical_workload(app_serv_f(), 200, 42);
  config.warmup_s = 10.0;
  config.measure_s = 30.0;
  const RunResult a = run_testbed(config);
  const RunResult b = run_testbed(config);
  EXPECT_DOUBLE_EQ(a.mean_rt_s, b.mean_rt_s);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
}

TEST(Testbed, LightLoadThroughputFollowsThinkTime) {
  // Far below saturation every client completes ~1 request per
  // (think + small RT) seconds: X ~= N / 7.0x, the paper's m ~= 0.14 slope.
  TestbedConfig config = typical_workload(app_serv_f(), 350);
  config.warmup_s = 30.0;
  config.measure_s = 120.0;
  const RunResult r = run_testbed(config);
  const double expected = 350.0 / 7.05;
  EXPECT_NEAR(r.throughput_rps, expected, 0.05 * expected);
  EXPECT_LT(r.mean_rt_s, 0.05);
}

TEST(Testbed, MaxThroughputsMatchCaseStudyServers) {
  // The calibration targets of the whole reproduction: ~86 / 186 / 320
  // requests/second for AppServS / F / VF under the typical workload.
  EXPECT_NEAR(measure_max_throughput(app_serv_s()), 86.0, 6.0);
  EXPECT_NEAR(measure_max_throughput(app_serv_f()), 186.0, 12.0);
  EXPECT_NEAR(measure_max_throughput(app_serv_vf()), 320.0, 20.0);
}

TEST(Testbed, ResponseTimeMonotoneInLoadRegime) {
  double prev = 0.0;
  for (std::size_t clients : {400u, 1200u, 1800u, 2400u}) {
    TestbedConfig config = typical_workload(app_serv_f(), clients, 7);
    config.warmup_s = 30.0;
    config.measure_s = 90.0;
    const double rt = run_testbed(config).mean_rt_s;
    EXPECT_GT(rt, prev * 0.98) << clients;  // allow tiny noise at low load
    prev = rt;
  }
  // Past saturation the response time is dominated by queueing: seconds.
  EXPECT_GT(prev, 1.0);
}

TEST(Testbed, SaturatedThroughputStaysAtMax) {
  TestbedConfig config = typical_workload(app_serv_f(), 2600, 3);
  config.warmup_s = 30.0;
  config.measure_s = 90.0;
  const RunResult r = run_testbed(config);
  EXPECT_NEAR(r.throughput_rps, 186.0, 14.0);
  EXPECT_GT(r.app_cpu_utilization, 0.97);
}

TEST(Testbed, MixedWorkloadReducesMaxThroughput) {
  const double typical = measure_max_throughput(app_serv_f());
  const double mixed = measure_max_throughput(app_serv_f(), 0.25);
  EXPECT_LT(mixed, 0.95 * typical);
  EXPECT_GT(mixed, 0.6 * typical);
}

TEST(Testbed, MixedWorkloadReportsBuyFraction) {
  TestbedConfig config = mixed_workload(app_serv_f(), 400, 0.25, 11);
  config.warmup_s = 30.0;
  config.measure_s = 120.0;
  const RunResult r = run_testbed(config);
  // 25% buy *clients*; buy users also issue login/logoff requests so the
  // buy-request share is slightly below their request share.
  EXPECT_GT(r.buy_request_fraction, 0.12);
  EXPECT_LT(r.buy_request_fraction, 0.30);
  EXPECT_GT(r.per_class.at("buy").completions, 0u);
  EXPECT_GT(r.per_class.at("browse").completions, 0u);
}

TEST(Testbed, BuyRequestsSlowerThanBrowse) {
  TestbedConfig config = mixed_workload(app_serv_f(), 1200, 0.3, 5);
  config.warmup_s = 30.0;
  config.measure_s = 90.0;
  const RunResult r = run_testbed(config);
  EXPECT_GT(r.per_class.at("buy").mean_rt_s,
            r.per_class.at("browse").mean_rt_s);
}

TEST(Testbed, DbNotBottleneckUnderTypicalWorkload) {
  TestbedConfig config = typical_workload(app_serv_f(), 2400, 9);
  config.warmup_s = 30.0;
  config.measure_s = 60.0;
  const RunResult r = run_testbed(config);
  EXPECT_LT(r.db_cpu_utilization, 0.5);
  EXPECT_LT(r.disk_utilization, 0.5);
}

TEST(Testbed, SmallCacheMissesMoreAndRespondsSlower) {
  auto make = [](std::uint64_t cache_bytes) {
    TestbedConfig config = typical_workload(app_serv_f(), 800, 21);
    config.warmup_s = 30.0;
    config.measure_s = 90.0;
    CacheConfig cc;
    cc.capacity_bytes = cache_bytes;
    config.cache = cc;
    return run_testbed(config);
  };
  const RunResult small = make(100ull * 8 * 1024);   // fits 100 sessions
  const RunResult large = make(1000ull * 8 * 1024);  // fits all 800
  EXPECT_GT(small.cache_miss_ratio, 0.5);
  EXPECT_LT(large.cache_miss_ratio, 0.08);  // cold misses only
  EXPECT_GT(small.mean_rt_s, large.mean_rt_s);
}

TEST(Testbed, KeepSamplesReturnsResponseTimes) {
  TestbedConfig config = typical_workload(app_serv_f(), 100, 2);
  config.warmup_s = 10.0;
  config.measure_s = 20.0;
  const RunResult r = run_testbed(config, /*keep_samples=*/true);
  EXPECT_GT(r.rt_samples_s.size(), 100u);
}

TEST(Testbed, InvalidConfigsThrow) {
  TestbedConfig config;
  config.server = app_serv_f();
  EXPECT_THROW(run_testbed(config), std::invalid_argument);  // no classes
  EXPECT_THROW(mixed_workload(app_serv_f(), 100, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace epp::sim::trade
