// epp_sweep — batch prediction sweeps from the command line.
//
// Acquires the calibration bundle through the unified calib pipeline —
// cold-calibrated from the simulated testbed, or warm-loaded from a
// persisted `.epp` artifact with --bundle (zero simulator work) — then
// drives the svc::BatchPredictor over the full client-load x buy-mix
// x method x server grid: the exact question stream a resource manager
// issues when comparing candidate architectures (paper sections 8.2/8.5).
// Repeated passes show the memoization cache at work — pass 1 computes,
// later passes answer from the sharded LRU.
//
// Resilient serving mode: any of --deadline-ms / --max-retries /
// --fault-spec / --batch-budget-ms routes the grid through the
// svc::ResilientPredictor instead — degraded cells are flagged
// fallback/stale, and the run ends with the resilience counters. Either
// way every cell is a value or an error code, rendered by the same CSV
// and table writers, so a failed cell prints its code name. With
// --fault-spec, deterministic seeded faults (calib::kFaultInjectionSeed)
// are injected at the evaluation boundary; see src/svc/fault.hpp for the
// spec grammar.
//
// Usage:
//   epp_sweep [--loads lo:hi:step] [--buys p1,p2,...]
//             [--methods historical,lqn,hybrid] [--servers n1,n2,...]
//             [--threads N] [--passes N] [--csv]
//             [--replications N]
//             [--bundle FILE] [--save-bundle FILE]
//             [--deadline-ms MS] [--max-retries N]
//             [--fault-spec SPEC] [--batch-budget-ms MS]
#include <cstddef>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "calib/bundle.hpp"
#include "calib/predictor_set.hpp"
#include "calib/seeds.hpp"
#include "core/trade_model.hpp"
#include "lint/lint.hpp"
#include "lint/verify.hpp"
#include "svc/batch_predictor.hpp"
#include "svc/fault.hpp"
#include "svc/resilient.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace epp;
namespace cli = util::cli;

struct SweepConfig {
  std::vector<double> loads;
  std::vector<double> buy_pcts{0.0, 25.0};
  std::vector<svc::Method> methods{svc::Method::kHistorical, svc::Method::kLqn,
                                   svc::Method::kHybrid};
  std::vector<std::string> servers{"AppServS", "AppServF", "AppServVF"};
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::size_t passes = 2;
  std::size_t replications = 1;  // simulator runs averaged per benchmark
  bool csv = false;
  calib::ArtifactCli artifact;  // --bundle / --save-bundle
  // Resilient serving (any of these set switches the sweep to the
  // ResilientPredictor path).
  double deadline_ms = 0.0;
  double batch_budget_ms = 0.0;
  std::optional<int> max_retries;
  std::string fault_spec;

  bool resilient() const {
    return deadline_ms > 0.0 || batch_budget_ms > 0.0 ||
           max_retries.has_value() || !fault_spec.empty();
  }
};

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep))
    if (!part.empty()) parts.push_back(part);
  return parts;
}

int usage(std::ostream& out) {
  out << "usage: epp_sweep [--loads lo:hi:step] [--buys p1,p2,...]\n"
         "                 [--methods historical,lqn,hybrid]\n"
         "                 [--servers AppServS,AppServF,AppServVF]\n"
         "                 [--threads N] [--passes N] [--csv]\n"
         "                 [--replications N]\n"
         "                 [--bundle FILE] [--save-bundle FILE]\n"
         "                 [--deadline-ms MS] [--max-retries N]\n"
         "                 [--fault-spec SPEC] [--batch-budget-ms MS]\n\n"
         "Acquires the calibration bundle (from the simulated testbed, or\n"
         "warm-started from a persisted artifact with --bundle), then\n"
         "batch-evaluates the client-load x buy-mix grid for every method\n"
         "and server through the concurrent memoizing prediction engine.\n"
         "Produce artifacts with epp_calibrate or --save-bundle.\n\n"
         "--replications N averages each calibration benchmark over N\n"
         "independent simulator replications (seeds derived per index,\n"
         "fanned out on the worker pool).\n\n"
         "--deadline-ms / --max-retries / --fault-spec / --batch-budget-ms\n"
         "switch to fault-tolerant serving: each cell returns a value or a\n"
         "typed error, degraded cells are flagged fallback/stale. The fault\n"
         "spec grammar is 'target:knob[,knob...][;...]' with target one of\n"
         "historical|lqn|hybrid|* and knobs fail=P, latency-ms=MS, e.g.\n"
         "  --fault-spec 'lqn:latency-ms=20;*:fail=0.05'\n"
         "Inputs are linted before any work happens (see epp_check verify);\n"
         "lint errors abort the run with exit code 2.\n";
  return 1;
}

SweepConfig parse_args(int argc, char** argv) {
  SweepConfig config;
  config.loads = cli::parse_range("--loads", "200:1400:100");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(std::string(arg) + " wants a value");
      return argv[++i];
    };
    if (arg == "--loads") {
      config.loads = cli::parse_range(arg, value());
    } else if (arg == "--buys") {
      config.buy_pcts = cli::parse_double_list(arg, value());
    } else if (arg == "--methods") {
      config.methods.clear();
      for (const std::string& name : split(value(), ','))
        config.methods.push_back(svc::method_from_name(name));
      if (config.methods.empty())
        throw std::invalid_argument("--methods wants at least one method");
    } else if (arg == "--servers") {
      config.servers = split(value(), ',');
      if (config.servers.empty())
        throw std::invalid_argument("--servers wants at least one server");
    } else if (arg == "--threads") {
      config.threads = cli::parse_size(arg, value(), 1);
    } else if (arg == "--passes") {
      config.passes = cli::parse_size(arg, value(), 1);
    } else if (arg == "--replications") {
      config.replications = cli::parse_size(arg, value(), 1);
    } else if (arg == "--csv") {
      config.csv = true;
    } else if (arg == "--deadline-ms") {
      config.deadline_ms = cli::parse_positive_double(arg, value());
    } else if (arg == "--batch-budget-ms") {
      config.batch_budget_ms = cli::parse_positive_double(arg, value());
    } else if (arg == "--max-retries") {
      config.max_retries =
          static_cast<int>(cli::parse_int(arg, value(), 0, 1000));
    } else if (arg == "--fault-spec") {
      config.fault_spec = value();  // linted pre-run, with the rest
    } else if (arg == "--bundle") {
      config.artifact.load_path = value();
    } else if (arg == "--save-bundle") {
      config.artifact.save_path = value();
    } else {
      throw std::invalid_argument("unknown argument: " + std::string(arg));
    }
  }
  return config;
}

core::WorkloadSpec mixed_load(double total_clients, double buy_pct) {
  core::WorkloadSpec w;
  w.buy_clients = total_clients * buy_pct / 100.0;
  w.browse_clients = total_clients - w.buy_clients;
  return w;
}

/// The engine's results as outcomes, so both sources render one way: a
/// result is served by the method asked, and a failure keeps its code.
std::vector<svc::Outcome> outcomes_of(
    const std::vector<svc::PredictionRequest>& grid,
    const std::vector<svc::PredictionResult>& results) {
  std::vector<svc::Outcome> outcomes;
  outcomes.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!results[i].ok()) {
      outcomes.emplace_back(svc::PredictionError{
          *results[i].code, grid[i].method, grid[i].server, results[i].error});
      continue;
    }
    svc::ResilientResult served;
    served.prediction = results[i];
    served.requested = served.served_by = grid[i].method;
    outcomes.emplace_back(std::move(served));
  }
  return outcomes;
}

void write_csv(const std::vector<svc::PredictionRequest>& grid,
               const std::vector<svc::Outcome>& outcomes) {
  std::cout << "server,buy_pct,clients,method,status,served_by,fallback,"
               "stale,retries,mean_rt_ms,throughput_rps\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::cout << grid[i].server << ','
              << util::fmt(100.0 * grid[i].workload.buy_fraction(), 1) << ','
              << util::fmt(grid[i].workload.total_clients(), 0) << ','
              << svc::method_name(grid[i].method) << ',';
    if (!outcomes[i].ok()) {
      std::cout << svc::error_code_name(outcomes[i].error().code)
                << ",,,,,,\n";
      continue;
    }
    const svc::ResilientResult& r = outcomes[i].value();
    std::cout << "ok," << svc::method_name(r.served_by) << ','
              << (r.fallback ? 1 : 0) << ',' << (r.stale ? 1 : 0) << ','
              << r.retries << ',' << util::fmt(r.prediction.mean_rt_s * 1e3, 3)
              << ',' << util::fmt(r.prediction.throughput_rps, 3) << '\n';
  }
}

void write_table(const SweepConfig& config,
                 const std::vector<svc::Outcome>& outcomes) {
  std::vector<std::string> headers{"server", "buy_pct", "clients"};
  for (const svc::Method method : config.methods)
    headers.push_back(std::string(svc::method_name(method)) + "_rt_ms");
  util::Table table(headers);
  std::size_t cursor = 0;
  for (const std::string& server : config.servers)
    for (const double buy_pct : config.buy_pcts)
      for (const double clients : config.loads) {
        std::vector<std::string> row{server, util::fmt(buy_pct, 0),
                                     util::fmt(clients, 0)};
        for (std::size_t mi = 0; mi < config.methods.size(); ++mi) {
          const svc::Outcome& outcome = outcomes[cursor++];
          if (!outcome.ok()) {
            row.emplace_back(svc::error_code_name(outcome.error().code));
            continue;
          }
          const svc::ResilientResult& r = outcome.value();
          std::string cell = util::fmt(r.prediction.mean_rt_s * 1e3, 2);
          if (r.stale)
            cell += "*";  // replayed stale from the cache
          else if (r.fallback)
            cell += "+";  // served by a fallback method
          row.push_back(cell);
        }
        table.add_row(row);
      }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) try {
  const SweepConfig config = parse_args(argc, argv);

  // --- pre-run lint: refuse to spend calibration/solver time on inputs
  // that cannot work (the same rules `epp_check verify` runs) ----------
  lint::Diagnostics findings;
  if (!config.artifact.load_path.empty())
    lint::lint_artifact_file(config.artifact.load_path, findings);
  if (!config.fault_spec.empty())
    svc::lint_fault_spec(config.fault_spec, {"<fault-spec>", 0}, findings);
  // A bad load repeats identically across every buy mix (and vice
  // versa), so lint each axis once instead of the whole cross product.
  for (const double clients : config.loads)
    core::lint_workload(mixed_load(clients, config.buy_pcts.front()),
                        {"<grid>", 0}, findings);
  for (const double buy_pct : config.buy_pcts)
    core::lint_workload(mixed_load(config.loads.front(), buy_pct),
                        {"<grid>", 0}, findings);
  if (lint::report_findings(findings, std::cerr)) {
    std::cerr << "epp_sweep: refusing to run with "
              << findings.count(lint::Severity::kError)
              << " lint error(s); see `epp_check verify` for the rule "
                 "catalog\n";
    return 2;
  }

  util::ThreadPool pool(config.threads);

  // --- bundle acquisition: cold calibration or warm artifact load ---------
  calib::CalibrationOptions calibration_options;
  calibration_options.pool = &pool;
  calibration_options.replications = config.replications;
  if (config.artifact.load_path.empty())
    std::cerr << "calibrating from the simulated testbed...\n";
  const util::Timer calibration_timer;
  const calib::CalibrationBundle bundle =
      calib::acquire_bundle(config.artifact, calibration_options);
  std::cerr << (config.artifact.load_path.empty()
                    ? "calibrated in "
                    : "warm start: loaded bundle in ")
            << util::fmt(calibration_timer.elapsed_ms(),
                         config.artifact.load_path.empty() ? 0 : 2)
            << " ms\n";

  // --- semantic pre-flight: the EPP-SEM verifier over the bundle the
  // sweep is about to serve from, under this run's serving options -------
  {
    lint::VerifyOptions verify_options;
    verify_options.methods = config.methods;
    verify_options.check_chains = config.resilient();
    if (config.resilient()) {
      verify_options.resilience.deadline_s = config.deadline_ms / 1e3;
      if (config.max_retries)
        verify_options.resilience.max_retries = *config.max_retries;
    }
    const std::string label = config.artifact.load_path.empty()
                                  ? "<calibrated>"
                                  : config.artifact.load_path;
    lint::Diagnostics semantic;
    lint::verify_bundle(bundle, label, nullptr, verify_options, semantic);
    if (lint::report_findings(semantic, std::cerr)) {
      std::cerr << "epp_sweep: refusing to serve from a bundle with "
                << semantic.count(lint::Severity::kError)
                << " semantic error(s); see `epp_check verify` for the rule "
                   "catalog\n";
      return 2;
    }
  }
  // Optional deterministic fault injection, wired through BatchOptions.
  std::optional<svc::FaultInjector> injector;
  svc::BatchOptions batch_options;
  if (!config.fault_spec.empty()) {
    injector.emplace(svc::parse_fault_spec(config.fault_spec),
                     calib::kFaultInjectionSeed);
    batch_options.fault = &*injector;
  }
  const calib::PredictorSet set = calib::make_predictors(bundle, batch_options);

  // --- the grid ------------------------------------------------------------
  std::vector<svc::PredictionRequest> grid;
  for (const std::string& server : config.servers)
    for (const double buy_pct : config.buy_pcts)
      for (const double clients : config.loads)
        for (const svc::Method method : config.methods)
          grid.push_back({method, server, mixed_load(clients, buy_pct)});

  svc::BatchPredictor& engine = *set.batch;
  std::optional<svc::ResilientPredictor> server_layer;
  if (config.resilient()) {
    svc::ResilienceOptions resilience;
    resilience.deadline_s = config.deadline_ms / 1e3;
    if (config.max_retries) resilience.max_retries = *config.max_retries;
    resilience.jitter_seed = calib::kRetryJitterSeed;
    server_layer.emplace(engine, resilience);
  }

  std::vector<svc::Outcome> outcomes;
  for (std::size_t pass = 1; pass <= config.passes; ++pass) {
    const util::Timer timer;
    if (server_layer)
      outcomes = server_layer->predict_batch(grid, &pool,
                                             config.batch_budget_ms / 1e3);
    else
      outcomes = outcomes_of(grid, engine.predict_batch(grid, &pool));
    std::cerr << "pass " << pass << "/" << config.passes << ": "
              << grid.size() << " predictions in "
              << util::fmt(timer.elapsed_ms(), 2) << " ms on "
              << config.threads << " thread(s)\n";
  }
  if (config.csv) {
    write_csv(grid, outcomes);
  } else {
    write_table(config, outcomes);
    if (server_layer) std::cout << "(+ = fallback method, * = stale replay)\n";
  }

  if (server_layer) {
    const svc::ResilienceStats rstats = server_layer->stats();
    std::cerr << "resilience: " << rstats.served << " served / "
              << rstats.errors << " errors of " << rstats.requests
              << " requests; " << rstats.retries << " retries, "
              << rstats.fallbacks << " fallbacks, " << rstats.stale_serves
              << " stale, " << rstats.deadline_hits << " deadline\n";
  }
  if (injector)
    std::cerr << "faults: " << injector->injected_failures() << " injected"
              << " of " << injector->decisions() << " decisions (seed "
              << injector->seed() << ")\n";

  const svc::CacheStats stats = engine.cache_stats();
  std::cerr << "cache: " << stats.hits << " hits, " << stats.misses
            << " misses, " << stats.evictions << " evictions ("
            << util::fmt(100.0 * stats.hit_ratio(), 1) << "% hit ratio, "
            << stats.entries << " entries)\n";
  return 0;
} catch (const std::exception& error) {
  std::cerr << "epp_sweep: " << error.what() << "\n\n";
  return usage(std::cerr);
}
