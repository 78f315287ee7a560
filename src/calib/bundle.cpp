#include "calib/bundle.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/evaluation.hpp"
#include "core/historical_predictor.hpp"
#include "hydra/relationships.hpp"
#include "hydra/serialize.hpp"

namespace epp::calib {

namespace {

/// The established reference server every support service measures on
/// (the paper's AppServF): first established catalog entry.
const ServerRecord& reference_server(const std::vector<ServerRecord>& servers) {
  for (const ServerRecord& record : servers)
    if (record.established) return record;
  throw std::logic_error("calibration catalog has no established server");
}

}  // namespace

const ServerRecord& CalibrationBundle::server(const std::string& name) const {
  for (const ServerRecord& record : servers)
    if (record.name == name) return record;
  throw std::invalid_argument("bundle has no server '" + name + "'");
}

double CalibrationBundle::max_throughput(const std::string& name) const {
  return server(name).max_throughput_rps;
}

CalibrationBundle calibrate(const CalibrationOptions& options) {
  CalibrationBundle bundle;
  bundle.lqn_seed = options.lqn_seed;
  bundle.mix_seed = options.mix_seed;
  bundle.sweep_seed = options.sweep_seed;
  bundle.servers = trade_catalog();
  const std::size_t n = bundle.servers.size();
  const ServerRecord& reference = reference_server(bundle.servers);
  core::SweepOptions sweep;
  sweep.seed = options.sweep_seed;
  const auto saturation = [&](const ServerRecord& record, double buy_fraction,
                              std::uint64_t seed) {
    return sim::TestbedRun{
        sim::trade::max_throughput_config(record.sim, buy_fraction, seed),
        options.replications};
  };

  // --- stage 1: every run whose config depends on nothing ----------------
  //   [0, n)   support service 2: each catalog server's max throughput
  //   n, n+1   support service 3: the LQN browse and buy type runs (table 2)
  //   n+2, n+3 the gradient points at 300 and 600 clients on the reference
  //   n+4      relationship 3: the mixed-workload benchmark, when measured
  std::vector<sim::TestbedRun> stage1;
  for (const ServerRecord& record : bundle.servers)
    stage1.push_back(saturation(record, 0.0, options.sweep_seed));
  for (const auto type : {sim::trade::UserType::kBrowse, sim::trade::UserType::kBuy})
    stage1.push_back({core::lqn_type_config(type, options.lqn_seed)});
  const std::vector<double> gradient_clients{300.0, 600.0};
  for (std::size_t i = 0; i < gradient_clients.size(); ++i)
    stage1.push_back({core::sweep_point_config(reference.sim,
                                               gradient_clients[i], i, sweep)});
  if (options.measure_mix)
    stage1.push_back(saturation(reference, options.mix_buy_fraction,
                                options.mix_seed));
  const auto first = sim::run_testbeds(stage1, options.pool);
  for (std::size_t i = 0; i < n; ++i)
    bundle.servers[i].max_throughput_rps = first[i].throughput_rps;
  bundle.lqn = {core::request_type_params(first[n]),
                core::request_type_params(first[n + 1])};
  bundle.gradient_m = hydra::fit_gradient(
      gradient_clients, {first[n + 2].throughput_rps, first[n + 3].throughput_rps});

  // --- stage 2: each established server's 2 lower and 2 upper points at
  // 0.25/0.60 and 1.25/1.70 x its knee (max throughput / m); each pair is
  // seeded sweep_seed + 0, + 1 ------------------------------------------
  std::vector<sim::TestbedRun> stage2;
  for (const ServerRecord& record : bundle.servers)
    if (record.established)
      for (const double scale : {0.25, 0.60, 1.25, 1.70})
        stage2.push_back({core::sweep_point_config(
            record.sim, scale * (record.max_throughput_rps / bundle.gradient_m),
            stage2.size() % 2, sweep)});
  const auto measured =
      core::measured_points(stage2, sim::run_testbeds(stage2, options.pool));

  core::HistoricalPredictor historical(bundle.gradient_m);
  auto point = measured.begin();
  for (const ServerRecord& record : bundle.servers) {
    if (!record.established) continue;
    const std::vector<core::MeasuredPoint> lower(point, point + 2);
    const std::vector<core::MeasuredPoint> upper(point + 2, point + 4);
    point += 4;
    historical.calibrate_established(record.name, core::to_data_points(lower),
                                     core::to_data_points(upper),
                                     record.max_throughput_rps);
    // Section 7.1: the same data points carry p90 samples, so the direct
    // percentile model calibrates for free.
    historical.calibrate_established_p90(
        record.name, core::to_p90_data_points(lower),
        core::to_p90_data_points(upper), record.max_throughput_rps);
  }
  // Relationship 2 fits new servers from every established one.
  for (const ServerRecord& record : bundle.servers) {
    if (record.established) continue;
    historical.register_new_server(record.name, record.max_throughput_rps);
    historical.register_new_server_p90(record.name, record.max_throughput_rps);
  }
  if (options.measure_mix) {
    const double mix_pct = 100.0 * options.mix_buy_fraction;
    const double mix_max = first[n + 4].throughput_rps;
    historical.calibrate_mix({0.0, mix_pct},
                             {reference.max_throughput_rps, mix_max});
    bundle.mix_points = {{0.0, reference.max_throughput_rps},
                         {mix_pct, mix_max}};
  }
  bundle.mean_model = historical.model();
  bundle.p90_model = historical.p90_model();
  return bundle;
}

// --- serialisation ---------------------------------------------------------

std::string to_text(const CalibrationBundle& bundle) {
  std::ostringstream os;
  os.precision(17);
  os << "epp-bundle v1\n";
  os << "seeds " << bundle.lqn_seed << ' ' << bundle.mix_seed << ' '
     << bundle.sweep_seed << '\n';
  os << "gradient " << bundle.gradient_m << '\n';
  auto write_params = [&](const char* type, const core::RequestTypeParams& p) {
    os << "lqn-params " << type << ' ' << p.app_demand_s << ' '
       << p.db_cpu_per_call_s << ' ' << p.disk_per_call_s << ' '
       << p.mean_db_calls << '\n';
  };
  write_params("browse", bundle.lqn.browse);
  write_params("buy", bundle.lqn.buy);
  for (const ServerRecord& record : bundle.servers)
    os << "server " << record.name << ' '
       << (record.established ? "established" : "new") << ' '
       << record.sim.speed << ' ' << record.sim.concurrency << ' '
       << record.arch.speed << ' ' << record.arch.app_concurrency << ' '
       << record.arch.db_concurrency << ' ' << record.max_throughput_rps
       << '\n';
  for (const MixPoint& point : bundle.mix_points)
    os << "mix-point " << point.buy_pct << ' ' << point.max_throughput_rps
       << '\n';
  auto write_model = [&](const char* which, const hydra::HistoricalModel& m) {
    const std::string text = hydra::to_text(m);
    std::size_t lines = 0;
    for (const char c : text)
      if (c == '\n') ++lines;
    os << "hydra-model " << which << ' ' << lines << '\n' << text;
  };
  write_model("mean", bundle.mean_model);
  write_model("p90", bundle.p90_model);
  return os.str();
}

CalibrationBundle parse_bundle_text(const std::string& text,
                                    const std::string& file,
                                    lint::Diagnostics& diagnostics,
                                    BundleParseInfo* info) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  BundleParseInfo local_info;
  BundleParseInfo& parsed = info != nullptr ? *info : local_info;
  const auto at = [&](int where) { return lint::SourceLocation{file, where}; };
  const auto here = [&] { return at(line_no); };
  const auto duplicate = [&](const std::string& what, int first_line) {
    diagnostics.error("EPP-BND-003", here(),
                      "duplicate " + what + " (first defined at line " +
                          std::to_string(first_line) + ")",
                      "keep exactly one; the old loader silently kept the "
                      "last, hiding merge mistakes");
  };

  CalibrationBundle bundle;
  if (!std::getline(is, line)) {
    diagnostics.error("EPP-BND-001", at(1), "empty input");
    return bundle;
  }
  ++line_no;
  if (line != "epp-bundle v1") {
    diagnostics.error("EPP-BND-001", here(), "bad header '" + line + "'",
                      "artifacts produced by epp_calibrate start with "
                      "'epp-bundle v1'");
    return bundle;
  }

  bool have_gradient = false;
  int browse_line = 0, buy_line = 0;
  std::map<double, int> mix_lines;

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "seeds") {
      if (parsed.have_seeds) {
        duplicate("'seeds' record", parsed.seeds_line);
        continue;
      }
      if (!(ls >> bundle.lqn_seed >> bundle.mix_seed >> bundle.sweep_seed)) {
        diagnostics.error("EPP-BND-002", here(), "bad seeds record");
        continue;
      }
      parsed.have_seeds = true;
      parsed.seeds_line = line_no;
    } else if (kind == "gradient") {
      if (have_gradient) {
        duplicate("'gradient' record", parsed.gradient_line);
        continue;
      }
      // Whether operator>> accepts "nan"/"inf" is implementation-defined,
      // and NaN slips through any `<= 0` comparison, so every numeric
      // field is checked for finiteness explicitly rather than trusting
      // the parse to reject it.
      if (!(ls >> bundle.gradient_m) || !std::isfinite(bundle.gradient_m) ||
          bundle.gradient_m <= 0.0) {
        diagnostics.error("EPP-BND-002", here(),
                          "bad gradient: want a finite positive value");
        continue;
      }
      have_gradient = true;
      parsed.gradient_line = line_no;
    } else if (kind == "lqn-params") {
      std::string type;
      core::RequestTypeParams params;
      if (!(ls >> type >> params.app_demand_s >> params.db_cpu_per_call_s >>
            params.disk_per_call_s >> params.mean_db_calls)) {
        diagnostics.error("EPP-BND-002", here(), "bad lqn-params record");
        continue;
      }
      bool finite = true;
      for (const double value :
           {params.app_demand_s, params.db_cpu_per_call_s,
            params.disk_per_call_s, params.mean_db_calls})
        if (!std::isfinite(value) || value < 0.0) finite = false;
      if (!finite) {
        diagnostics.error(
            "EPP-BND-002", here(),
            "lqn-params values must be finite and non-negative");
        continue;
      }
      if (type != "browse" && type != "buy") {
        diagnostics.error("EPP-BND-002", here(),
                          "unknown request type '" + type + "'");
        continue;
      }
      int& first_line = type == "browse" ? browse_line : buy_line;
      if (first_line != 0) {
        duplicate("'lqn-params " + type + "' record", first_line);
        continue;
      }
      (type == "browse" ? bundle.lqn.browse : bundle.lqn.buy) = params;
      first_line = line_no;
    } else if (kind == "server") {
      ServerRecord record;
      std::string provenance;
      if (!(ls >> record.name >> provenance >> record.sim.speed >>
            record.sim.concurrency >> record.arch.speed >>
            record.arch.app_concurrency >> record.arch.db_concurrency >>
            record.max_throughput_rps)) {
        diagnostics.error("EPP-BND-002", here(), "bad server record");
        continue;
      }
      if (const auto seen = parsed.server_lines.find(record.name);
          seen != parsed.server_lines.end()) {
        duplicate("server '" + record.name + "'", seen->second);
        continue;
      }
      if (provenance == "established") {
        record.established = true;
      } else if (provenance != "new") {
        diagnostics.error("EPP-BND-002", here(),
                          "bad server provenance '" + provenance + "'",
                          "catalog provenance is 'established' or 'new'");
        continue;
      }
      bool positive = true;
      for (const double value :
           {record.sim.speed, record.arch.speed, record.max_throughput_rps})
        if (!std::isfinite(value) || value <= 0.0) positive = false;
      if (!positive) {
        diagnostics.error(
            "EPP-BND-002", here(),
            "server speeds and max throughput must be finite and positive");
        continue;
      }
      if (record.sim.concurrency == 0 || record.arch.app_concurrency == 0 ||
          record.arch.db_concurrency == 0) {
        diagnostics.error("EPP-BND-002", here(),
                          "server concurrency limits must be positive");
        continue;
      }
      record.sim.name = record.name;
      record.sim.established = record.established;
      record.arch.name = record.name;
      parsed.server_lines.emplace(record.name, line_no);
      bundle.servers.push_back(std::move(record));
    } else if (kind == "mix-point") {
      MixPoint point;
      if (!(ls >> point.buy_pct >> point.max_throughput_rps)) {
        diagnostics.error("EPP-BND-002", here(), "bad mix-point record");
        continue;
      }
      if (!std::isfinite(point.buy_pct) || point.buy_pct < 0.0 ||
          point.buy_pct > 100.0) {
        diagnostics.error(
            "EPP-BND-002", here(),
            "mix-point buy percentage must be finite and within [0, 100]");
        continue;
      }
      if (!std::isfinite(point.max_throughput_rps) ||
          point.max_throughput_rps <= 0.0) {
        diagnostics.error(
            "EPP-BND-002", here(),
            "mix-point max throughput must be finite and positive");
        continue;
      }
      if (const auto seen = mix_lines.find(point.buy_pct);
          seen != mix_lines.end()) {
        duplicate("mix-point at " + std::to_string(point.buy_pct) + "% buy",
                  seen->second);
        continue;
      }
      mix_lines.emplace(point.buy_pct, line_no);
      bundle.mix_points.push_back(point);
    } else if (kind == "hydra-model") {
      std::string which;
      std::size_t lines = 0;
      if (!(ls >> which >> lines)) {
        diagnostics.error("EPP-BND-002", here(), "bad hydra-model record");
        continue;
      }
      if (which != "mean" && which != "p90") {
        diagnostics.error("EPP-BND-002", here(),
                          "unknown hydra-model block '" + which + "'");
        continue;
      }
      const int block_start = line_no;
      std::string block;
      bool truncated = false;
      for (std::size_t i = 0; i < lines; ++i) {
        if (!std::getline(is, line)) {
          diagnostics.error("EPP-BND-005", at(block_start),
                            "truncated hydra-model block: expected " +
                                std::to_string(lines) + " lines, got " +
                                std::to_string(i));
          truncated = true;
          break;
        }
        ++line_no;
        block += line;
        block += '\n';
      }
      if (truncated) break;  // consumed to EOF; nothing left to scan
      const bool mean = which == "mean";
      int& model_line = mean ? parsed.mean_model_line : parsed.p90_model_line;
      if (model_line != 0) {
        duplicate("'hydra-model " + which + "' block", model_line);
        continue;
      }
      // Record where each fit lives inside the block (file line =
      // block_start + 1 + block-relative index) so semantic findings can
      // point at the offending equation, not just the block header.
      auto index_block = [&](std::map<std::string, int>& server_lines,
                             int* mix_line) {
        std::istringstream bs(block);
        std::string block_line;
        for (int i = 0; std::getline(bs, block_line); ++i) {
          std::istringstream ts(block_line);
          std::string record, name;
          if (!(ts >> record)) continue;
          if (record == "server" && (ts >> name))
            server_lines.emplace(name, block_start + 1 + i);
          else if (record == "mix" && mix_line != nullptr && *mix_line == 0)
            *mix_line = block_start + 1 + i;
        }
      };
      try {
        (mean ? bundle.mean_model : bundle.p90_model) =
            hydra::model_from_text(block);
        model_line = block_start;
        index_block(mean ? parsed.mean_server_lines : parsed.p90_server_lines,
                    mean ? &parsed.mean_mix_line : nullptr);
      } catch (const std::invalid_argument& error) {
        diagnostics.error("EPP-BND-005", at(block_start),
                          "embedded " + which + " model: " + error.what());
      }
    } else {
      diagnostics.error("EPP-BND-002", here(),
                        "unknown record '" + kind + "'");
    }
  }

  const auto missing = [&](const std::string& what) {
    diagnostics.error("EPP-BND-004", at(0), "missing " + what,
                      "regenerate the artifact with epp_calibrate");
  };
  if (!have_gradient) missing("gradient record");
  if (browse_line == 0 || buy_line == 0) missing("lqn-params record");
  if (bundle.servers.empty()) missing("server records");
  if (parsed.mean_model_line == 0) missing("hydra-model mean block");
  if (parsed.p90_model_line == 0) missing("hydra-model p90 block");
  if (have_gradient && parsed.mean_model_line != 0 &&
      bundle.mean_model.gradient_m() != bundle.gradient_m)
    diagnostics.error(
        "EPP-BND-006", at(parsed.gradient_line),
        "gradient record disagrees with the embedded mean model",
        "re-run epp_calibrate instead of editing records by hand");
  return bundle;
}

CalibrationBundle bundle_from_text(const std::string& text) {
  lint::Diagnostics diagnostics;
  CalibrationBundle bundle = parse_bundle_text(text, "", diagnostics);
  if (const lint::Diagnostic* first =
          diagnostics.first_at_least(lint::Severity::kError)) {
    std::string message = "epp bundle parse error";
    if (first->location.line > 0)
      message += ", line " + std::to_string(first->location.line);
    throw std::invalid_argument(message + ": " + first->message);
  }
  return bundle;
}

void save_bundle(const std::string& path, const CalibrationBundle& bundle) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  out << to_text(bundle);
  out.flush();
  if (!out) throw std::runtime_error("failed writing bundle to '" + path + "'");
}

CalibrationBundle load_bundle(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open bundle file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return bundle_from_text(text.str());
}

ArtifactCli parse_artifact_flags(int argc, char** argv) {
  ArtifactCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(arg + " wants a file path");
      return argv[++i];
    };
    if (arg == "--bundle") {
      cli.load_path = value();
    } else if (arg == "--save-bundle") {
      cli.save_path = value();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  return cli;
}

CalibrationBundle acquire_bundle(const ArtifactCli& cli,
                                 const CalibrationOptions& options) {
  CalibrationBundle bundle = cli.load_path.empty()
                                 ? calibrate(options)
                                 : load_bundle(cli.load_path);
  if (!cli.save_path.empty()) save_bundle(cli.save_path, bundle);
  return bundle;
}

}  // namespace epp::calib
