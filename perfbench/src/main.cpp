// epp_perfbench: runs one benchmark workload and prints its metrics, the
// last line being the JSON result. perfbench/run.py builds this binary,
// starts the epp_serve daemon for the serve-* workloads and calls it.
//
//   epp_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --out-dir DIR [--port P --pid PID --bundle FILE
//                 --setup-s X --setup-samples N --calibrate-s X]
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using Metrics = std::vector<std::pair<std::string, std::string>>;

// The end-to-end metrics every untraced run reports, with units.
const Metrics kEndToEnd = {
    {"latency_p50_ms", "ms"}, {"latency_tail_ms", "ms"},
    {"throughput_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};

// The per-layer metrics every traced run reports (0 where the workload
// does not exercise the layer).
const Metrics kPerLayer = {
    {"net.encode_us", "us"},
    {"net.send_us", "us"},
    {"net.decode_us", "us"},
    {"serve.outside_predictor_us.p50", "us"},
    {"serve.outside_predictor_us.p99", "us"},
    {"serve.predictor_us.p50", "us"},
    {"serve.predictor_us.p99", "us"},
    {"serve.cpu_us_per_req", "us"},
    {"serve.ctx_switches_per_req", "count"},
    {"serve.threads", "count"},
    {"serve.queue_peak", "count"},
    {"serve.shed_ratio", "ratio"},
    {"serve.slo_rate_per_s", "1/s"},
    {"svc.stale_evictions", "count"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.fallback_ratio", "ratio"},
    {"svc.resilient_us.p50", "us"},
    {"svc.resilient_us.p99", "us"},
    {"svc.batch_us.p50", "us"},
    {"svc.batch_us.p99", "us"},
    {"svc.grid_ms", "ms"},
    {"core.historical_us.p50", "us"},
    {"core.historical_us.p99", "us"},
    {"core.lqn_us.p50", "us"},
    {"core.lqn_us.p99", "us"},
    {"core.hybrid_us.p50", "us"},
    {"core.hybrid_us.p99", "us"},
    {"core.hybrid_startup_ms", "ms"},
    {"lqn.solve_us.p50", "us"},
    {"lqn.solve_us.p99", "us"},
    {"lqn.iterations.p50", "count"},
    {"lqn.iterations.p99", "count"},
    {"lqn.diverged", "count"},
    {"rm.allocate_ms", "ms"},
    {"rm.evaluations", "count"},
    {"rm.failed_probes", "count"},
    {"util.pool_parallelism", "ratio"},
    {"sim.point_ms", "ms"},
    {"sim.replication_ms", "ms"},
    {"sim.completions_per_host_s", "1/s"},
    {"calib.calibrate_s", "s"},
    {"calib.make_predictors_ms", "ms"},
    {"loadgen.lateness_p99_ms", "ms"},
    {"host.steal_pct", "%"},
    {"failed_ratio", "ratio"},
    {"self.net_us", "us"},
    {"self.serve_us", "us"},
    {"self.svc_us", "us"},
    {"self.core_us", "us"},
    {"self.lqn_us", "us"},
    {"self.rm_ms", "ms"},
    {"self.sim_ms", "ms"},
    {"trace.overhead_p50_ms", "ms"},
    {"trace.overhead_tail_ms", "ms"},
};

double number(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const double v = std::stod(text, &used);
  if (used != text.size()) throw std::invalid_argument(flag + ": not a number: " + text);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(flag + " wants a value");
      const std::string value = argv[++i];
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = static_cast<std::uint64_t>(number(flag, value));
      else if (flag == "--seconds") options.seconds = number(flag, value);
      else if (flag == "--trace") options.trace = number(flag, value) != 0.0;
      else if (flag == "--out-dir") options.out_dir = value;
      else if (flag == "--port") options.port = static_cast<std::uint16_t>(number(flag, value));
      else if (flag == "--pid") options.pid = static_cast<int>(number(flag, value));
      else if (flag == "--bundle") options.bundle_path = value;
      else if (flag == "--setup-s") options.setup_s = number(flag, value);
      else if (flag == "--setup-samples") options.setup_samples = static_cast<std::size_t>(number(flag, value));
      else if (flag == "--calibrate-s") options.calibrate_s = number(flag, value);
      else if (flag == "--startup-hwm-mb") options.startup_hwm_mb = number(flag, value);
      else if (flag == "--listen-rss-mb") options.listen_rss_mb = number(flag, value);
      else if (flag == "--own-listen-rss-mb") options.own_listen_rss_mb = number(flag, value);
      else throw std::invalid_argument("unknown flag " + flag);
    }
    if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  } catch (const std::exception& error) {
    std::cerr << "epp_perfbench: " << error.what() << "\n";
    return 2;
  }

  perfbench::Sheet sheet;
  try {
    if (options.workload == "serve-hot" || options.workload == "serve-cold")
      perfbench::run_serve(options, sheet);
    else if (options.workload == "capacity-plan")
      perfbench::run_capacity_plan(options, sheet);
    else if (options.workload == "sim-sweep")
      perfbench::run_sim_sweep(options, sheet);
    else
      throw perfbench::StepError("unknown workload '" + options.workload + "'");
    sheet.print(options.workload, options.trace ? kPerLayer : kEndToEnd, options.trace);
  } catch (const std::exception& error) {
    std::cerr << "epp_perfbench: workload " << options.workload
              << " failed: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
