// The four workloads and the shared per-layer replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "calib/bundle.hpp"
#include "common.hpp"
#include "svc/batch_predictor.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // span files of traced runs
  // serve-* only: the daemon under test and what its start-up cost.
  std::uint16_t port = 0;
  int pid = 0;
  std::string bundle_path;  // the bundle the daemon saved
  double setup_s = 0.0;     // median exec -> "listening on"
  std::size_t setup_samples = 0;
  double calibrate_s = 0.0;  // median calibration time the daemon logged
  // At "listening on": the medians over the set-up starts of VmHWM and
  // VmRSS, and the daemon under load's own VmRSS.
  double startup_hwm_mb = 0.0;
  double listen_rss_mb = 0.0;
  double own_listen_rss_mb = 0.0;
};

int run_serve(const RunOptions& options, Sheet& sheet);
int run_capacity_plan(const RunOptions& options, Sheet& sheet);
int run_sim_sweep(const RunOptions& options, Sheet& sheet);

/// Replay a request stream against each entry point in turn —
/// svc::ResilientPredictor, svc::BatchPredictor, core::Predictor and the
/// lqn solver — each on a fresh predictor set built from `bundle`, timing
/// every call, and fill the svc/core/lqn per-layer metrics. A layer's self
/// time is its entry point's total minus the next layer's on the same work.
void replay_layers(const std::vector<epp::svc::PredictionRequest>& stream,
                   const epp::calib::CalibrationBundle& bundle, Sheet& sheet);

}  // namespace perfbench
