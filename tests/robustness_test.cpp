// Failure injection and boundary stress across the stack: malformed
// inputs must fail loudly with typed exceptions, and extreme-but-legal
// configurations must stay numerically sane.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/errors.hpp"
#include "core/trade_model.hpp"
#include "hydra/relationships.hpp"
#include "lqn/parser.hpp"
#include "lqn/solver.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "sim/trade/testbed.hpp"

namespace epp {
namespace {

// ---------------------------------------------------------------------------
// Simulator extremes.
// ---------------------------------------------------------------------------

TEST(Robustness, ZeroThinkTimeClientsHammerTheServer) {
  sim::trade::TestbedConfig config =
      sim::trade::typical_workload(sim::trade::app_serv_f(), 60, 3);
  config.classes[0].mean_think_time_s = 0.0;
  config.warmup_s = 5.0;
  config.measure_s = 20.0;
  const auto r = sim::trade::run_testbed(config);
  // 60 clients with zero think time saturate the CPU completely.
  EXPECT_GT(r.app_cpu_utilization, 0.99);
  EXPECT_NEAR(r.throughput_rps, 186.0, 15.0);
}

TEST(Robustness, SingleClientSeesBareServiceTime) {
  sim::trade::TestbedConfig config =
      sim::trade::typical_workload(sim::trade::app_serv_f(), 1, 5);
  config.warmup_s = 10.0;
  config.measure_s = 300.0;
  const auto r = sim::trade::run_testbed(config);
  const auto agg = sim::trade::browse_aggregate();
  const double expected =
      agg.app_cpu_s + agg.mean_db_calls * (agg.db_cpu_per_call + agg.disk_per_call);
  EXPECT_NEAR(r.mean_rt_s, expected, 0.25 * expected);
}

TEST(Robustness, TinyConcurrencyCapsStillProgress) {
  sim::trade::ServerSpec server = sim::trade::app_serv_f();
  server.concurrency = 1;
  sim::trade::TestbedConfig config = sim::trade::typical_workload(server, 300, 7);
  config.db_concurrency = 1;
  config.warmup_s = 10.0;
  config.measure_s = 40.0;
  const auto r = sim::trade::run_testbed(config);
  EXPECT_GT(r.throughput_rps, 10.0);
  EXPECT_GT(r.mean_rt_s, 0.0);
}

TEST(Robustness, HugeSimulationStaysFiniteAndFast) {
  sim::trade::TestbedConfig config =
      sim::trade::typical_workload(sim::trade::app_serv_vf(), 8000, 11);
  config.warmup_s = 10.0;
  config.measure_s = 30.0;
  const auto r = sim::trade::run_testbed(config);
  EXPECT_TRUE(std::isfinite(r.mean_rt_s));
  EXPECT_NEAR(r.throughput_rps, 320.0, 30.0);
}

// ---------------------------------------------------------------------------
// Engine / resource misuse.
// ---------------------------------------------------------------------------

TEST(Robustness, EngineManyEqualTimeEvents) {
  sim::Engine engine;
  long count = 0;
  for (int i = 0; i < 100000; ++i)
    engine.schedule_raw_at(
        1.0, [](void* ctx, std::uint64_t) { ++*static_cast<long*>(ctx); },
        &count);
  engine.run_all();
  EXPECT_EQ(count, 100000);
}

TEST(Robustness, PsResourceManyConcurrentJobs) {
  sim::Engine engine;
  sim::PsResource cpu(engine, 1.0);
  long done = 0;
  for (int i = 0; i < 5000; ++i) cpu.add_job(0.001, [&done] { ++done; });
  engine.run_all();
  EXPECT_EQ(done, 5000);
  // All jobs shared the CPU: total time = total demand.
  EXPECT_NEAR(engine.now(), 5.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Solver extremes.
// ---------------------------------------------------------------------------

core::TradeCalibration cal() {
  core::TradeCalibration c;
  c.browse = {0.005376, 0.00083, 0.00040, 1.14};
  c.buy = {0.010455, 0.00161, 0.00050, 2.0};
  return c;
}

TEST(Robustness, SolverEnormousPopulation) {
  const auto model =
      core::build_trade_lqn(cal(), core::arch_f(), {1e6, 0.0, 7.0});
  const auto r = lqn::LayeredSolver().solve(model);
  EXPECT_TRUE(std::isfinite(r.response_time_s("browse_clients")));
  // Deep saturation: R ~= N/Xmax - Z.
  EXPECT_NEAR(r.response_time_s("browse_clients"), 1e6 / 186.0 - 7.0,
              0.02 * (1e6 / 186.0));
}

TEST(Robustness, SolverFractionalPopulation) {
  const auto model =
      core::build_trade_lqn(cal(), core::arch_f(), {0.5, 0.0, 7.0});
  const auto r = lqn::LayeredSolver().solve(model);
  EXPECT_GT(r.response_time_s("browse_clients"), 0.0);
  EXPECT_LT(r.response_time_s("browse_clients"), 0.05);
}

TEST(Robustness, SolverZeroDemandEntries) {
  lqn::Model model;
  const auto box = model.add_processor({"box", lqn::Scheduling::kDelay, 1.0, 1});
  const auto cpu = model.add_processor({"cpu", lqn::Scheduling::kProcessorSharing, 1.0, 1});
  const auto clients =
      model.add_task(lqn::make_closed_client_task("clients", box, 10.0, 1.0));
  const auto server = model.add_task(lqn::make_server_task("server", cpu));
  const auto cycle = model.add_entry({"cycle", clients, 0.0, {}});
  const auto serve = model.add_entry({"serve", server, 0.0, {}});
  model.add_call(cycle, serve, 1.0);
  const auto r = lqn::LayeredSolver().solve(model);
  EXPECT_NEAR(r.response_time_s("clients"), 0.0, 1e-9);
  EXPECT_NEAR(r.throughput_rps("clients"), 10.0, 1e-6);
}

TEST(Robustness, ParserRejectsGarbageGracefully) {
  for (const char* text :
       {"processor", "task t", "entry e", "call a", "call a b",
        "processor p ps speed=", "processor p ps =1",
        "task t processor=p population=abc"}) {
    EXPECT_THROW((void)lqn::parse_model(text), std::invalid_argument) << text;
  }
}

TEST(Robustness, ParserHandlesLongInput) {
  std::string text = "processor cpu ps\n";
  text += "processor box delay\n";
  text += "task clients ref processor=box population=5 think=1\n";
  text += "entry cycle task=clients\n";
  for (int i = 0; i < 500; ++i) {
    const std::string n = std::to_string(i);
    text += "task t" + n + " processor=cpu\n";
    text += "entry e" + n + " task=t" + n + " demand=0.0001\n";
    text += "call cycle e" + n + " 0.01\n";
  }
  const lqn::Model model = lqn::parse_model(text);
  EXPECT_NO_THROW(model.validate());
  const auto r = lqn::LayeredSolver().solve(model);
  EXPECT_TRUE(r.converged);
}

// ---------------------------------------------------------------------------
// Workload validation at the service boundary.
// ---------------------------------------------------------------------------

TEST(Robustness, WorkloadValidationRejectsMalformedSpecs) {
  const auto invalid = [](core::WorkloadSpec w) {
    EXPECT_THROW(core::validate_workload(w), core::InvalidWorkloadError);
  };
  core::WorkloadSpec w;

  w.browse_clients = -1.0;
  invalid(w);
  w.browse_clients = std::nan("");
  invalid(w);
  w.browse_clients = std::numeric_limits<double>::infinity();
  invalid(w);

  w = {};
  w.buy_clients = -0.5;
  invalid(w);
  w.buy_clients = -std::numeric_limits<double>::infinity();
  invalid(w);

  w = {};
  w.browse_clients = 100.0;
  w.think_time_s = -7.0;
  invalid(w);
  w.think_time_s = std::nan("");
  invalid(w);
}

TEST(Robustness, WorkloadValidationAcceptsBoundaryValues) {
  core::WorkloadSpec empty;  // zero clients is a legal (trivial) workload
  EXPECT_NO_THROW(core::validate_workload(empty));

  core::WorkloadSpec zero_think;
  zero_think.browse_clients = 50.0;
  zero_think.think_time_s = 0.0;
  EXPECT_NO_THROW(core::validate_workload(zero_think));

  core::WorkloadSpec all_buy;
  all_buy.buy_clients = 10.0;
  EXPECT_NO_THROW(core::validate_workload(all_buy));
  EXPECT_DOUBLE_EQ(all_buy.buy_fraction(), 1.0);
}

TEST(Robustness, WorkloadValidationErrorNamesTheOffendingField) {
  core::WorkloadSpec w;
  w.buy_clients = -2.0;
  try {
    core::validate_workload(w);
    FAIL() << "negative buy_clients accepted";
  } catch (const core::InvalidWorkloadError& error) {
    EXPECT_NE(std::string(error.what()).find("buy_clients"),
              std::string::npos)
        << error.what();
  }
}

// ---------------------------------------------------------------------------
// Historical method numerics.
// ---------------------------------------------------------------------------

TEST(Robustness, Relationship1NoisyFlatLowerDataClamped) {
  // A lower trend that comes out flat/decreasing from noise must still
  // produce a monotone (clamped) prediction curve.
  const std::vector<hydra::DataPoint> lower{{100.0, 0.0102, 50},
                                            {400.0, 0.0100, 50}};
  const std::vector<hydra::DataPoint> upper{{1500.0, 1.0, 50},
                                            {2000.0, 3.5, 50}};
  const hydra::Relationship1 rel =
      hydra::fit_relationship1(lower, upper, 186.0, 0.14);
  double prev = 0.0;
  for (double n = 0.0; n < 2500.0; n += 50.0) {
    const double rt = rel.predict_metric(n);
    EXPECT_GE(rt, prev - 1e-9) << n;
    prev = rt;
  }
}

TEST(Robustness, Relationship1RejectsDecreasingUpperTrend) {
  const std::vector<hydra::DataPoint> lower{{100.0, 0.01, 50},
                                            {400.0, 0.02, 50}};
  const std::vector<hydra::DataPoint> upper{{1500.0, 3.5, 50},
                                            {2000.0, 1.0, 50}};
  EXPECT_THROW(hydra::fit_relationship1(lower, upper, 186.0, 0.14),
               std::invalid_argument);
}

}  // namespace
}  // namespace epp
