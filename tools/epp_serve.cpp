// epp_serve — the long-running prediction daemon.
//
// Wraps the calibrated predictor stack behind the length-prefixed binary
// protocol (src/net/frame.hpp) on a TCP socket and serves until a signal
// or a client's shutdown frame. This is the paper's capacity-planning
// engine as an actual service: a resource manager (or epp_loadgen)
// connects, streams prediction requests at production rates, and gets
// typed outcomes back — fallback/stale flagged, overload shed with
// `overloaded` instead of queueing without bound, per-request deadlines
// riding the svc cancellation machinery.
//
// Serving goes through a BundleRegistry (src/serve/registry.hpp): the
// startup bundle is promoted as version 1, and a SIGHUP or a kReload
// frame re-reads the --bundle file (or the path carried in the frame)
// and promotes it *live* — gated through the EPP-SEM verifier, with the
// incumbent version kept serving on gate failure, and in-flight
// requests pinned to the version they were admitted under. kObserve
// frames feed the drift detector; the stats frame and every response's
// health byte report warming/healthy/drifting.
//
// The bundle is acquired exactly like epp_sweep: cold-calibrated from
// the simulated testbed, or warm-loaded in milliseconds with --bundle.
// Both paths run the structural lint + EPP-SEM semantic gates first; a
// daemon should refuse a defective bundle at startup, not serve garbage
// for a week.
//
// Usage:
//   epp_serve [--port P] [--host H] [--workers N] [--queue-depth N]
//             [--max-connections N] [--deadline-ms MS] [--max-retries N]
//             [--stale-capacity N] [--fault-spec SPEC]
//             [--idle-timeout-ms MS] [--drift-delta D] [--drift-lambda L]
//             [--drift-min-samples N]
//             [--bundle FILE] [--save-bundle FILE] [--threads N]
//
// A `net:` clause in --fault-spec arms the wire chaos policy (resets,
// truncated frames, slow-loris writes, accept delays) — the fault storm
// the chaos smoke job drives with epp_loadgen retries.
//
// Prints exactly one "listening on HOST:PORT" line to stdout once ready
// (scripts and CI scrape it), then stats lines to stderr on shutdown.
#include <atomic>
#include <chrono>
#include <csignal>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "calib/bundle.hpp"
#include "calib/seeds.hpp"
#include "lint/lint.hpp"
#include "lint/verify.hpp"
#include "net/chaos.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "svc/fault.hpp"
#include "svc/resilient.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace epp;
namespace cli = util::cli;

std::atomic<bool> g_signalled{false};
std::atomic<bool> g_reload{false};

void on_signal(int) { g_signalled.store(true, std::memory_order_release); }
void on_reload(int) { g_reload.store(true, std::memory_order_release); }

struct ServeConfig {
  serve::ServerOptions server;
  double deadline_ms = 0.0;
  std::optional<int> max_retries;
  std::size_t stale_capacity = 4096;
  std::string fault_spec;
  std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  calib::ArtifactCli artifact;
};

int usage(std::ostream& out) {
  out << "usage: epp_serve [--port P] [--host H] [--workers N]\n"
         "                 [--queue-depth N] [--max-connections N]\n"
         "                 [--deadline-ms MS] [--max-retries N]\n"
         "                 [--stale-capacity N] [--fault-spec SPEC]\n"
         "                 [--idle-timeout-ms MS] [--drift-delta D]\n"
         "                 [--drift-lambda L] [--drift-min-samples N]\n"
         "                 [--bundle FILE] [--save-bundle FILE] [--threads N]\n\n"
         "Serves predictions over the length-prefixed binary protocol\n"
         "(see src/net/frame.hpp). --port 0 (default) picks an ephemeral\n"
         "port, reported on stdout as 'listening on HOST:PORT'. Warm-start\n"
         "with --bundle to skip calibration; --threads sizes the one-time\n"
         "calibration pool, --workers the serving worker pool. A full\n"
         "dispatch queue sheds requests with the typed 'overloaded' error.\n"
         "SIGHUP (or a reload frame) re-reads the --bundle file and\n"
         "hot-swaps it through the EPP-SEM gate; a 'net:' clause in\n"
         "--fault-spec arms wire chaos. Stop with SIGINT/SIGTERM or a\n"
         "client shutdown frame; in-flight requests drain before exit.\n"
         "Drive it with epp_loadgen.\n";
  return 1;
}

ServeConfig parse_args(int argc, char** argv) {
  ServeConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(std::string(arg) + " wants a value");
      return argv[++i];
    };
    if (arg == "--port") {
      config.server.port =
          static_cast<std::uint16_t>(cli::parse_int(arg, value(), 0, 65535));
    } else if (arg == "--host") {
      config.server.host = value();
    } else if (arg == "--workers") {
      config.server.workers = cli::parse_size(arg, value(), 1);
    } else if (arg == "--queue-depth") {
      config.server.queue_capacity = cli::parse_size(arg, value(), 1);
    } else if (arg == "--max-connections") {
      config.server.max_connections = cli::parse_size(arg, value(), 1);
    } else if (arg == "--deadline-ms") {
      config.deadline_ms = cli::parse_positive_double(arg, value());
    } else if (arg == "--idle-timeout-ms") {
      config.server.idle_timeout_s =
          cli::parse_positive_double(arg, value()) / 1e3;
    } else if (arg == "--drift-delta") {
      config.server.drift.delta = cli::parse_double_at_least(arg, value(), 0.0);
    } else if (arg == "--drift-lambda") {
      config.server.drift.lambda = cli::parse_positive_double(arg, value());
    } else if (arg == "--drift-min-samples") {
      config.server.drift.min_samples = cli::parse_size(arg, value(), 1);
    } else if (arg == "--max-retries") {
      config.max_retries =
          static_cast<int>(cli::parse_int(arg, value(), 0, 1000));
    } else if (arg == "--stale-capacity") {
      config.stale_capacity = cli::parse_size(arg, value());
    } else if (arg == "--fault-spec") {
      config.fault_spec = value();
    } else if (arg == "--threads") {
      config.threads = cli::parse_size(arg, value(), 1);
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

/// Load + parse the bundle file at `path` and promote it through the
/// registry's EPP-SEM gate. Shared by SIGHUP and the kReload frame.
serve::ReloadStatus reload_bundle(serve::BundleRegistry& registry,
                                  const std::string& path) {
  serve::ReloadStatus status;
  if (path.empty()) {
    status.message = "reload: no bundle path (cold-calibrated start and the "
                     "frame named none)";
    return status;
  }
  std::ifstream in(path);
  if (!in) {
    status.message = "reload: cannot read '" + path + "'";
    return status;
  }
  std::ostringstream text;
  text << in.rdbuf();
  lint::Diagnostics structural;
  calib::BundleParseInfo info;
  calib::CalibrationBundle candidate =
      calib::parse_bundle_text(text.str(), path, structural, &info);
  if (structural.has_errors()) {
    status.message =
        "reload: '" + path + "' failed structural lint: " +
        structural.first_at_least(lint::Severity::kError)->message;
    return status;
  }
  const serve::PromotionResult result =
      registry.promote(std::move(candidate), path, &info);
  status.ok = result.accepted;
  status.message = result.message;
  return status;
}

}  // namespace

int main(int argc, char** argv) try {
  const ServeConfig config = parse_args(argc, argv);

  // --- pre-run gates: structural lint + EPP-SEM, as in epp_sweep --------
  lint::Diagnostics findings;
  if (!config.artifact.load_path.empty())
    lint::lint_artifact_file(config.artifact.load_path, findings);
  svc::FaultConfig fault_config;
  if (!config.fault_spec.empty())
    fault_config =
        svc::lint_fault_spec(config.fault_spec, {"<fault-spec>", 0}, findings);
  if (lint::report_findings(findings, std::cerr)) {
    std::cerr << "epp_serve: refusing to start with "
              << findings.count(lint::Severity::kError) << " lint error(s)\n";
    return 2;
  }

  util::ThreadPool pool(config.threads);
  calib::CalibrationOptions calibration_options;
  calibration_options.pool = &pool;
  if (config.artifact.load_path.empty())
    std::cerr << "calibrating from the simulated testbed...\n";
  const util::Timer calibration_timer;
  calib::CalibrationBundle bundle =
      calib::acquire_bundle(config.artifact, calibration_options);
  std::cerr << (config.artifact.load_path.empty()
                    ? "calibrated in "
                    : "warm start: loaded bundle in ")
            << calibration_timer.elapsed_ms() << " ms\n";

  // --- serving stack: fault injector, registry, chaos, server -----------
  std::optional<svc::FaultInjector> injector;
  serve::RegistryOptions registry_options;
  if (fault_config.any()) {
    injector.emplace(fault_config, calib::kFaultInjectionSeed);
    registry_options.batch.fault = &*injector;
  }
  registry_options.resilience.deadline_s = config.deadline_ms / 1e3;
  if (config.max_retries)
    registry_options.resilience.max_retries = *config.max_retries;
  registry_options.resilience.stale_capacity = config.stale_capacity;
  registry_options.resilience.jitter_seed = calib::kRetryJitterSeed;

  serve::BundleRegistry registry(registry_options);
  {
    const serve::PromotionResult startup = registry.promote(
        std::move(bundle),
        config.artifact.load_path.empty() ? "<calibrated>"
                                          : config.artifact.load_path);
    if (!startup.accepted) {
      if (!startup.findings.empty())
        std::cerr << lint::render_text(startup.findings);
      std::cerr << "epp_serve: " << startup.message << "\n";
      return 2;
    }
    std::cerr << "epp_serve: " << startup.message << "\n";
  }

  std::optional<net::ChaosPolicy> chaos;
  if (fault_config.net.any()) {
    chaos.emplace(fault_config.net, calib::kFaultInjectionSeed);
    std::cerr << "epp_serve: wire chaos armed (reset "
              << fault_config.net.reset_p << ", truncate "
              << fault_config.net.truncate_p << ", accept-reset "
              << fault_config.net.accept_reset_p << ")\n";
  }

  serve::ServerOptions server_options = config.server;
  server_options.chaos = chaos ? &*chaos : nullptr;
  const std::string default_reload_path = config.artifact.load_path;
  server_options.reload_handler =
      [&registry, default_reload_path](const std::string& path) {
        return reload_bundle(registry,
                             path.empty() ? default_reload_path : path);
      };

  serve::PredictionServer server(registry, server_options);
  server.start();
  std::cout << "listening on " << config.server.host << ":" << server.port()
            << std::endl;  // flushed: readiness line for scripts/CI

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGHUP, on_reload);
  while (!g_signalled.load(std::memory_order_acquire) && !server.stopping()) {
    if (g_reload.exchange(false, std::memory_order_acq_rel)) {
      const serve::ReloadStatus status =
          reload_bundle(registry, default_reload_path);
      std::cerr << "epp_serve: SIGHUP " << (status.ok ? "reload: " : "reload "
                                                        "failed: ")
                << status.message << "\n";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cerr << "epp_serve: draining...\n";
  server.stop();

  const serve::ServerStats server_stats = server.stats();
  const serve::RegistryStats registry_stats = registry.stats();
  const serve::DriftSnapshot drift = server.drift();
  std::cerr << "served " << server_stats.requests_served << " of "
            << server_stats.requests_enqueued << " admitted ("
            << server_stats.served_inline << " inline, "
            << server_stats.requests_shed << " shed, "
            << server_stats.bad_frames << " bad frames, "
            << server_stats.idle_closes << " idle closes, peak queue "
            << server_stats.queue_peak << ") over "
            << server_stats.connections_accepted << " connection(s)\n";
  std::cerr << "registry: version " << registry_stats.active_version << " ("
            << registry_stats.promotions << " promotions, "
            << registry_stats.rejections << " rejections, "
            << registry_stats.rollbacks << " rollbacks); drift "
            << serve::health_state_name(drift.state) << " ("
            << drift.observations << " observations, " << drift.trips
            << " trips)\n";
  if (const auto active = registry.active(); active != nullptr) {
    const svc::ResilienceStats resilience_stats = active->resilient->stats();
    std::cerr << "resilience: " << resilience_stats.served << " served / "
              << resilience_stats.errors << " errors; "
              << resilience_stats.retries << " retries, "
              << resilience_stats.fallbacks << " fallbacks, "
              << resilience_stats.stale_serves << " stale ("
              << resilience_stats.stale_evictions << " evicted), "
              << resilience_stats.deadline_hits << " deadline, "
              << resilience_stats.breaker_opens << " breaker opens\n";
  }
  if (chaos) {
    const net::ChaosStats chaos_stats = chaos->stats();
    std::cerr << "chaos: " << chaos_stats.accept_resets << " accept resets, "
              << chaos_stats.accept_delays << " accept delays, "
              << chaos_stats.write_resets << " write resets, "
              << chaos_stats.write_truncates << " truncated frames, "
              << chaos_stats.dribbled_writes << " dribbled writes\n";
  }
  return 0;
} catch (const std::exception& error) {
  std::cerr << "epp_serve: " << error.what() << "\n\n";
  return usage(std::cerr);
}
