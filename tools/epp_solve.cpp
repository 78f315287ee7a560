// epp_solve — command-line layered-queuing solver.
//
// Usage:
//   epp_solve MODEL.lqn [--population NAME=VALUE]... [--rate NAME=VALUE]...
//             [--tol SECONDS] [--csv] [--no-verify]
//
// Reads a model in the epp::lqn text format (see src/lqn/parser.hpp),
// optionally overrides reference-task populations / arrival rates, solves
// it and prints per-class predictions plus processor utilisations. This is
// the workflow LQNS provides for the paper's experiments, as a tool.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "lint/verify.hpp"
#include "lqn/solver.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

namespace cli = epp::util::cli;

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " MODEL.lqn [--population NAME=VALUE]... [--rate NAME=VALUE]..."
               " [--tol SECONDS] [--csv] [--no-verify]\n";
  std::exit(2);
}

struct Override {
  std::string task;
  double value;
};

Override parse_override(const std::string& flag, const std::string& arg) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0)
    throw cli::UsageError(flag + ": wants NAME=VALUE, got '" + arg + "'");
  return {arg.substr(0, eq), cli::parse_double(flag, arg.substr(eq + 1))};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace epp;
  if (argc < 2) usage(argv[0]);

  std::string model_path;
  std::vector<Override> populations, rates;
  lqn::SolverOptions options;
  bool csv = false;
  bool verify = true;

  try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--population") {
      populations.push_back(parse_override(arg, next()));
    } else if (arg == "--rate") {
      rates.push_back(parse_override(arg, next()));
    } else if (arg == "--tol") {
      options.convergence_tol_s = cli::parse_positive_double(arg, next());
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--no-verify") {
      verify = false;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else if (model_path.empty()) {
      model_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  } catch (const cli::UsageError& error) {
    std::cerr << "epp_solve: " << error.what() << '\n';
    usage(argv[0]);
  }
  if (model_path.empty()) usage(argv[0]);

  std::ifstream in(model_path);
  if (!in) {
    std::cerr << "epp_solve: cannot open '" << model_path << "'\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  // Pre-solve lint: parse errors and structural defects come back as a
  // complete findings list, not one exception per fix-rebuild cycle.
  // Notes (e.g. deliberate pool saturation) don't block solving.
  lint::Diagnostics lint_findings;
  std::optional<lint::ParsedLqn> parsed =
      lint::lint_lqn_text(buffer.str(), model_path, lint_findings);
  if (lint::report_findings(lint_findings, std::cerr) || !parsed) {
    std::cerr << "epp_solve: model fails lint with "
              << lint_findings.count(lint::Severity::kError) << " error(s)\n";
    return 1;
  }

  try {
    lqn::Model& model = parsed->model;
    const lqn::DeclarationLines& lines = parsed->lines;
    for (const Override& o : populations) {
      const auto id = model.find_task(o.task);
      if (!id || !model.task(*id).is_reference) {
        std::cerr << "epp_solve: no reference task '" << o.task << "'\n";
        return 1;
      }
      model.task(*id).population = o.value;
    }
    for (const Override& o : rates) {
      const auto id = model.find_task(o.task);
      if (!id || !model.task(*id).open_arrivals) {
        std::cerr << "epp_solve: no open reference task '" << o.task << "'\n";
        return 1;
      }
      model.task(*id).arrival_rate_rps = o.value;
    }

    // Semantic pre-check (EPP-SEM-010/011/012), run after overrides so the
    // populations/rates actually being solved are what gets checked: refuse
    // models the solver would only reject at runtime — saturated open
    // stations, priority starvation with finite-pool feedback. --no-verify
    // bypasses the gate for deliberate divergence experiments.
    if (verify) {
      lint::Diagnostics findings;
      lint::verify_lqn_model(model, model_path, findings, lines);
      if (lint::report_findings(findings, std::cerr)) {
        std::cerr << "epp_solve: semantic verification predicts this model "
                     "will not solve ("
                  << findings.count(lint::Severity::kError)
                  << " error(s)); pass --no-verify to attempt it anyway\n";
        return 1;
      }
    }

    const lqn::SolveResult result = lqn::LayeredSolver(options).solve(model);

    util::Table classes({"class", "kind", "population", "response_time_ms",
                         "throughput_rps"});
    for (const lqn::ClassPrediction& c : result.classes)
      classes.add_row({c.name, c.open ? "open" : "closed",
                       c.open ? "-" : util::fmt(c.population, 0),
                       util::fmt(c.response_time_s * 1e3, 3),
                       util::fmt(c.throughput_rps, 3)});
    util::Table processors({"processor", "utilization_pct"});
    for (const auto& [name, util_value] : result.processor_utilization)
      processors.add_row({name, util::fmt(100.0 * util_value, 1)});

    if (csv) {
      std::cout << classes.to_csv() << '\n' << processors.to_csv();
    } else {
      classes.print(std::cout);
      std::cout << '\n';
      processors.print(std::cout);
      std::cout << "\nconverged: " << (result.converged ? "yes" : "NO")
                << ", layer iterations: " << result.iterations
                << ", solve time: " << util::fmt(result.solve_time_s * 1e3, 2)
                << " ms\n";
    }
    return result.converged ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "epp_solve: " << e.what() << '\n';
    return 1;
  }
}
