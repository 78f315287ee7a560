#include "lqn/model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace epp::lqn {
namespace {

Model minimal_model() {
  Model m;
  const auto box = m.add_processor({"box", Scheduling::kDelay, 1.0, 1});
  const auto cpu = m.add_processor({"cpu", Scheduling::kProcessorSharing, 1.0, 1});
  const auto clients = m.add_task(make_closed_client_task("clients", box, 10.0, 5.0));
  const auto server = m.add_task(make_server_task("server", cpu, 4));
  const auto cycle = m.add_entry({"cycle", clients, 0.0, {}});
  const auto serve = m.add_entry({"serve", server, 0.01, {}});
  m.add_call(cycle, serve, 1.0);
  return m;
}

TEST(LqnModel, ValidModelValidates) {
  EXPECT_NO_THROW(minimal_model().validate());
}

TEST(LqnModel, FindByName) {
  const Model m = minimal_model();
  EXPECT_TRUE(m.find_task("server").has_value());
  EXPECT_TRUE(m.find_entry("serve").has_value());
  EXPECT_TRUE(m.find_processor("cpu").has_value());
  EXPECT_FALSE(m.find_task("nope").has_value());
  EXPECT_FALSE(m.find_entry("nope").has_value());
  EXPECT_FALSE(m.find_processor("nope").has_value());
}

TEST(LqnModel, ReferenceTasksListed) {
  const Model m = minimal_model();
  const auto refs = m.reference_tasks();
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(m.task(refs[0]).name, "clients");
}

TEST(LqnModel, RejectsDanglingReferences) {
  Model m;
  EXPECT_THROW(m.add_task(make_server_task("t", 5, 1)),
               std::invalid_argument);
  m.add_processor({"p", Scheduling::kProcessorSharing, 1.0, 1});
  EXPECT_THROW(m.add_entry({"e", 3, 0.0, {}}), std::invalid_argument);
  m.add_task(make_server_task("t", 0, 1));
  m.add_entry({"e", 0, 0.0, {}});
  EXPECT_THROW(m.add_call(0, 9, 1.0), std::invalid_argument);
  EXPECT_THROW(m.add_call(0, 0, -1.0), std::invalid_argument);
}

TEST(LqnModel, ValidateRejectsNoReferenceTask) {
  Model m;
  const auto cpu = m.add_processor({"cpu", Scheduling::kProcessorSharing, 1.0, 1});
  m.add_task(make_server_task("server", cpu, 1));
  m.add_entry({"serve", 0, 0.01, {}});
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(LqnModel, ValidateRejectsZeroPopulation) {
  Model m = minimal_model();
  m.task(*m.find_task("clients")).population = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(LqnModel, ValidateRejectsNonFiniteInputs) {
  // NaN passes every `< 0` / `<= 0` test, so each field needs its own
  // finiteness check (the EPP-LQN-005 / EPP-LQN-010 lint rules).
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNan, kInf}) {
    Model demand = minimal_model();
    demand.entry(*demand.find_entry("serve")).service_demand_s = bad;
    EXPECT_THROW(demand.validate(), std::invalid_argument);

    Model call = minimal_model();
    call.entry(*call.find_entry("cycle")).calls.front().mean_calls = bad;
    EXPECT_THROW(call.validate(), std::invalid_argument);

    Model population = minimal_model();
    population.task(*population.find_task("clients")).population = bad;
    EXPECT_THROW(population.validate(), std::invalid_argument);

    Model think = minimal_model();
    think.task(*think.find_task("clients")).think_time_s = bad;
    EXPECT_THROW(think.validate(), std::invalid_argument);

    Model open = minimal_model();
    Task& clients = open.task(*open.find_task("clients"));
    clients.open_arrivals = true;
    clients.arrival_rate_rps = bad;
    EXPECT_THROW(open.validate(), std::invalid_argument);
  }
  // Processor speed divides every demand (EPP-LQN-013): it must be
  // finite and positive, on the client box as on a server.
  for (const double bad : {kNan, kInf, 0.0, -2.0})
    for (const char* name : {"box", "cpu"}) {
      Model speed = minimal_model();
      speed.processor(*speed.find_processor(name)).speed = bad;
      EXPECT_THROW(speed.validate(), std::invalid_argument)
          << name << " speed " << bad;
    }
}

TEST(LqnModel, ValidateRejectsZeroMultiplicity) {
  Model processor = minimal_model();
  processor.processor(*processor.find_processor("cpu")).multiplicity = 0;
  EXPECT_THROW(processor.validate(), std::invalid_argument);

  // Every task, reference tasks included.
  for (const char* name : {"clients", "server"}) {
    Model task = minimal_model();
    task.task(*task.find_task(name)).multiplicity = 0;
    EXPECT_THROW(task.validate(), std::invalid_argument) << name;
  }
}

TEST(LqnModel, CheckModelCollectsEveryErrorWithItsLine) {
  Model m = minimal_model();
  m.processor(*m.find_processor("cpu")).speed = 0.0;
  m.entry(*m.find_entry("serve")).service_demand_s = -1.0;
  DeclarationLines lines;
  lines.processors = {1, 2};
  lines.entries = {5, 6};
  lint::Diagnostics diagnostics;
  check_model(m, "m.lqn", diagnostics, lines);
  ASSERT_EQ(diagnostics.size(), 2u) << lint::render_text(diagnostics);
  EXPECT_EQ(diagnostics.all()[0].rule, "EPP-LQN-013");
  EXPECT_EQ(diagnostics.all()[0].location.line, 2);
  EXPECT_EQ(diagnostics.all()[1].rule, "EPP-LQN-005");
  EXPECT_EQ(diagnostics.all()[1].location.line, 6);
  EXPECT_EQ(diagnostics.all()[1].location.file, "m.lqn");

  // validate() throws the first of them.
  try {
    m.validate();
    FAIL() << "validate() accepted a zero-speed processor";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()),
              "Model: " + diagnostics.all()[0].message);
  }
}

TEST(LqnModel, ValidateRejectsCallIntoReferenceTask) {
  Model m = minimal_model();
  m.add_call(*m.find_entry("serve"), *m.find_entry("cycle"), 1.0);
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(LqnModel, ValidateRejectsSelfTaskCall) {
  Model m = minimal_model();
  const auto cpu = *m.find_processor("cpu");
  const auto server = *m.find_task("server");
  const auto extra = m.add_entry({"extra", server, 0.001, {}});
  m.add_call(*m.find_entry("serve"), extra, 1.0);
  (void)cpu;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(LqnModel, ValidateRejectsCycles) {
  Model m = minimal_model();
  const auto cpu2 = m.add_processor({"cpu2", Scheduling::kProcessorSharing, 1.0, 1});
  const auto other = m.add_task(make_server_task("other", cpu2, 1));
  const auto other_entry = m.add_entry({"other_e", other, 0.001, {}});
  m.add_call(*m.find_entry("serve"), other_entry, 1.0);
  m.add_call(other_entry, *m.find_entry("serve"), 1.0);
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(LqnModel, ValidateRejectsTaskWithoutEntries) {
  Model m = minimal_model();
  m.add_task(make_server_task("empty", 1, 1));
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(LqnModel, VisitRatiosMultiplyAlongCallChain) {
  Model m;
  const auto box = m.add_processor({"box", Scheduling::kDelay, 1.0, 1});
  const auto cpu = m.add_processor({"cpu", Scheduling::kProcessorSharing, 1.0, 1});
  const auto clients = m.add_task(make_closed_client_task("clients", box, 5.0, 7.0));
  const auto app = m.add_task(make_server_task("app", cpu, 1));
  const auto db = m.add_task(make_server_task("db", cpu, 1));
  const auto cycle = m.add_entry({"cycle", clients, 0.0, {}});
  const auto serve = m.add_entry({"serve", app, 0.004, {}});
  const auto query = m.add_entry({"query", db, 0.001, {}});
  m.add_call(cycle, serve, 1.0);
  m.add_call(serve, query, 1.14);
  const auto visits = m.visit_ratios(clients);
  EXPECT_DOUBLE_EQ(visits[cycle], 1.0);
  EXPECT_DOUBLE_EQ(visits[serve], 1.0);
  EXPECT_DOUBLE_EQ(visits[query], 1.14);
  (void)db;
}

TEST(LqnModel, VisitRatiosRejectNonReference) {
  const Model m = minimal_model();
  EXPECT_THROW(m.visit_ratios(*m.find_task("server")), std::invalid_argument);
}

}  // namespace
}  // namespace epp::lqn
