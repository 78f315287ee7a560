// epp_calibrate — produce and inspect persisted calibration artifacts.
//
// The cold half of the paper's cost asymmetry (sections 8.4/8.5) runs
// here, once: the full support-service pipeline against the simulated
// testbed, persisted as a line-oriented `.epp` bundle. Every other binary
// (epp_sweep, the examples) then warm-starts from the artifact in
// milliseconds with --bundle, running zero simulator work.
//
// Usage:
//   epp_calibrate [--out FILE] [--no-mix] [--threads N]   produce an artifact
//   epp_calibrate --inspect FILE                          summarise one
#include <cstddef>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "calib/bundle.hpp"
#include "lint/lint.hpp"
#include "lint/verify.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace epp;
namespace cli = util::cli;

struct Config {
  std::string out_path = "trade.epp";
  std::string inspect_path;
  bool measure_mix = true;
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
};

int usage(std::ostream& out) {
  out << "usage: epp_calibrate [--out FILE] [--no-mix] [--threads N]\n"
         "       epp_calibrate --inspect FILE\n\n"
         "Runs the unified calibration pipeline against the simulated\n"
         "testbed and persists the resulting bundle (default trade.epp),\n"
         "or inspects an existing artifact without simulating anything.\n"
         "Warm-start consumers with: epp_sweep --bundle FILE\n";
  return 1;
}

Config parse_args(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(std::string(arg) + " wants a value");
      return argv[++i];
    };
    if (arg == "--out") {
      config.out_path = value();
    } else if (arg == "--inspect") {
      config.inspect_path = value();
    } else if (arg == "--no-mix") {
      config.measure_mix = false;
    } else if (arg == "--threads") {
      config.threads = cli::parse_size(arg, value(), 1);
    } else {
      throw std::invalid_argument("unknown argument: " + std::string(arg));
    }
  }
  return config;
}

void print_summary(const calib::CalibrationBundle& bundle) {
  util::Table servers({"server", "provenance", "speed", "max_tput_rps"});
  for (const calib::ServerRecord& record : bundle.servers)
    servers.add_row({record.name,
                     record.established ? "established" : "new",
                     util::fmt(record.arch.speed, 3),
                     util::fmt(record.max_throughput_rps, 1)});
  servers.print(std::cout);

  std::cout << "\ngradient m: " << util::fmt(bundle.gradient_m, 4)
            << "  (paper: 0.14)\n";
  util::Table lqn({"request_type", "app_demand_ms", "db_cpu_per_call_ms",
                   "disk_per_call_ms", "mean_db_calls"});
  auto lqn_row = [&](const char* type, const core::RequestTypeParams& p) {
    lqn.add_row({type, util::fmt(p.app_demand_s * 1e3, 3),
                 util::fmt(p.db_cpu_per_call_s * 1e3, 3),
                 util::fmt(p.disk_per_call_s * 1e3, 3),
                 util::fmt(p.mean_db_calls, 2)});
  };
  lqn_row("browse", bundle.lqn.browse);
  lqn_row("buy", bundle.lqn.buy);
  lqn.print(std::cout);

  if (bundle.has_mix()) {
    std::cout << "relationship 3 (mix):";
    for (const calib::MixPoint& point : bundle.mix_points)
      std::cout << "  " << util::fmt(point.max_throughput_rps, 1)
                << " req/s at " << util::fmt(point.buy_pct, 0) << "% buy";
    std::cout << '\n';
  } else {
    std::cout << "relationship 3 (mix): not calibrated\n";
  }
  std::cout << "seeds: lqn " << bundle.lqn_seed << ", mix " << bundle.mix_seed
            << ", sweeps " << bundle.sweep_seed << '\n';
}

}  // namespace

int main(int argc, char** argv) try {
  const Config config = parse_args(argc, argv);

  if (!config.inspect_path.empty()) {
    // Verify before loading: structural lint plus the EPP-SEM semantic
    // pass, so a defective artifact gets its full findings list (with
    // counterexample witnesses), not just the first parse exception.
    lint::Diagnostics findings;
    lint::verify_artifact_file(config.inspect_path, lint::VerifyOptions{},
                               findings);
    if (lint::report_findings(findings, std::cerr)) {
      std::cerr << "epp_calibrate: artifact fails verification with "
                << findings.count(lint::Severity::kError) << " error(s)\n";
      return 2;
    }
    const util::Timer timer;
    const calib::CalibrationBundle bundle =
        calib::load_bundle(config.inspect_path);
    std::cout << "bundle " << config.inspect_path << " (loaded in "
              << util::fmt(timer.elapsed_ms(), 2) << " ms)\n\n";
    print_summary(bundle);
    return 0;
  }

  util::ThreadPool pool(config.threads);
  calib::CalibrationOptions options;
  options.measure_mix = config.measure_mix;
  options.pool = &pool;
  std::cerr << "calibrating from the simulated testbed on " << config.threads
            << " thread(s)...\n";
  const util::Timer timer;
  const calib::CalibrationBundle bundle = calib::calibrate(options);
  std::cerr << "calibrated in " << util::fmt(timer.elapsed_ms(), 0) << " ms\n";
  calib::save_bundle(config.out_path, bundle);
  std::cout << "wrote " << config.out_path << "\n\n";
  print_summary(bundle);
  // Self-check: the artifact just written must pass both the structural
  // lint and the EPP-SEM semantic verifier (the same gate epp_sweep
  // applies before consuming it).
  lint::Diagnostics findings;
  lint::verify_artifact_file(config.out_path, lint::VerifyOptions{}, findings);
  if (lint::report_findings(findings, std::cerr)) {
    std::cerr << "epp_calibrate: freshly written artifact fails verification "
                 "— this is a calibration bug\n";
    return 2;
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "epp_calibrate: " << error.what() << "\n\n";
  return usage(std::cerr);
}
