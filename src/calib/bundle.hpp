// The calibration bundle: every fitted artifact the paper's support
// services produce, owned by one struct that can be produced from the
// simulated testbed once, persisted to a line-oriented `.epp` text file,
// and loaded in milliseconds everywhere a predictor is needed.
//
// Calibration is the expensive half of every method (sections 3-6 and the
// 8.4/8.5 asymmetry: minutes of measurement vs microseconds of
// prediction), yet the repo used to re-derive it from scratch in five
// places. This library is now the only calibration implementation; the
// bench harness, the examples and the CLI tools all consume bundles.
//
// Contents: the server catalog with measured max throughputs and
// established/new provenance, the shared clients->throughput gradient m,
// the layered-queuing per-request-type parameters (table 2), the fitted
// historical models (mean and direct-p90), the relationship-3 mix
// calibration, and the named seeds the runs drew from. Predictors built
// from a loaded bundle return bit-identical predictions to freshly
// calibrated ones — serialisation uses 17 significant digits, which
// round-trips every double exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "calib/catalog.hpp"
#include "calib/seeds.hpp"
#include "core/trade_model.hpp"
#include "hydra/model.hpp"
#include "lint/diagnostic.hpp"
#include "util/thread_pool.hpp"

namespace epp::calib {

/// One measured relationship-3 input: max throughput at a buy percentage
/// on the established reference server.
struct MixPoint {
  double buy_pct = 0.0;
  double max_throughput_rps = 0.0;
};

struct CalibrationBundle {
  // Seeds the pipeline ran with (provenance; see seeds.hpp).
  std::uint64_t lqn_seed = kLqnCalibrationSeed;
  std::uint64_t mix_seed = kMixBenchmarkSeed;
  std::uint64_t sweep_seed = kSweepSeed;

  /// Catalog entries with measured max throughputs, established first.
  std::vector<ServerRecord> servers;

  /// The shared clients->throughput gradient (the paper's m = 0.14).
  double gradient_m = 0.0;

  /// Layered-queuing per-request-type parameters (table 2).
  core::TradeCalibration lqn;

  /// Measured relationship-3 inputs; empty when the mix benchmark was
  /// skipped (the fitted relationship itself lives in mean_model).
  std::vector<MixPoint> mix_points;

  // Fitted historical models. The {1.0} placeholder gradient is
  // overwritten by calibrate()/bundle_from_text before anyone reads it.
  hydra::HistoricalModel mean_model{1.0};
  hydra::HistoricalModel p90_model{1.0};

  bool has_mix() const noexcept { return !mix_points.empty(); }

  /// Bundle entry by name; throws std::invalid_argument when absent.
  const ServerRecord& server(const std::string& name) const;
  /// Measured max throughput by name.
  double max_throughput(const std::string& name) const;
};

struct CalibrationOptions {
  /// Run the mixed-workload benchmark that feeds relationship 3 (one extra
  /// simulator run on the reference server at mix_buy_fraction buy users).
  bool measure_mix = true;
  double mix_buy_fraction = 0.25;
  std::uint64_t lqn_seed = kLqnCalibrationSeed;
  std::uint64_t mix_seed = kMixBenchmarkSeed;
  std::uint64_t sweep_seed = kSweepSeed;
  /// Fan simulator runs out on this pool (sequential when null).
  util::ThreadPool* pool = nullptr;
  /// Independent replications per saturation benchmark, averaged via
  /// sim::run_replications (1 = single run, the historical behaviour).
  std::size_t replications = 1;
  /// Forwarded to TestbedConfig::fluid_threshold: populations at or above
  /// this count answer from the fluid fast path (0 = always exact).
  std::size_t fluid_threshold = 0;
};

/// The calibration pipeline (support services 1-3): benchmark every
/// catalog server's max throughput, calibrate the LQN parameters, fit the
/// gradient and the per-server historical relationships (mean and p90),
/// and optionally the workload-mix relationship.
CalibrationBundle calibrate(const CalibrationOptions& options = {});

/// Serialise to the line-oriented `.epp` artifact text. Stable across
/// round trips.
std::string to_text(const CalibrationBundle& bundle);

/// Facts about an artifact's *source text* that the parsed bundle struct
/// cannot carry (record presence and line numbers) — the lint rules in
/// src/lint/rules_bundle.cpp locate their findings with these.
struct BundleParseInfo {
  bool have_seeds = false;
  int seeds_line = 0;
  int gradient_line = 0;
  int mean_model_line = 0;  // header line of the embedded mean block
  int p90_model_line = 0;   // header line of the embedded p90 block
  std::map<std::string, int> server_lines;  // catalog record line by name
  // Per-server fit lines *inside* the embedded model blocks, plus the
  // mix-relationship line — the EPP-SEM curve rules point here.
  std::map<std::string, int> mean_server_lines;
  std::map<std::string, int> p90_server_lines;
  int mean_mix_line = 0;
};

/// Parse `.epp` artifact text, appending every structural finding (the
/// EPP-BND-001..006 rules: bad header, malformed records, duplicate
/// records/sections, missing required records, truncated embedded
/// blocks, gradient/model disagreement) to `diagnostics`, located in
/// `file`. Malformed records are skipped, so one bad line yields one
/// finding instead of hiding everything after it. Returns the (possibly
/// partial) bundle; trust it only when no error was added. This is the
/// single source of truth for the format — bundle_from_text and
/// `epp_check verify` both run it.
CalibrationBundle parse_bundle_text(const std::string& text,
                                    const std::string& file,
                                    lint::Diagnostics& diagnostics,
                                    BundleParseInfo* info = nullptr);

/// Parse a bundle produced by to_text. Throws std::invalid_argument with
/// the first parse_bundle_text error (line-numbered message) on
/// malformed, truncated or duplicate-record input.
CalibrationBundle bundle_from_text(const std::string& text);

/// File convenience wrappers; throw std::runtime_error on I/O failure.
void save_bundle(const std::string& path, const CalibrationBundle& bundle);
CalibrationBundle load_bundle(const std::string& path);

/// The `--bundle FILE` / `--save-bundle FILE` flags shared by the
/// examples and tools: load the artifact when given (warm start, zero
/// simulator work), calibrate otherwise, and persist when asked.
struct ArtifactCli {
  std::string load_path;  // --bundle
  std::string save_path;  // --save-bundle
};

/// Parse exactly the artifact flags from argv; throws std::invalid_argument
/// on anything else (callers with richer CLIs parse their own flags and
/// fill ArtifactCli directly).
ArtifactCli parse_artifact_flags(int argc, char** argv);

/// Load (load_path non-empty) or calibrate, then save (save_path
/// non-empty). The one construction path every consumer goes through.
CalibrationBundle acquire_bundle(const ArtifactCli& cli,
                                 const CalibrationOptions& options = {});

}  // namespace epp::calib
