// Per-layer attribution by replay: the same request stream is sent to
// each layer's public entry point in turn, outside-in, and every call is
// timed. Nothing inside the libraries is instrumented.
#include <cstddef>
#include <map>

#include "calib/predictor_set.hpp"
#include "calib/seeds.hpp"
#include "core/errors.hpp"
#include "core/trade_model.hpp"
#include "lqn/solver.hpp"
#include "svc/resilient.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace epp;

void replay_layers(const std::vector<svc::PredictionRequest>& stream,
                   const calib::CalibrationBundle& bundle, Sheet& sheet) {
  const std::size_t n = stream.size();
  const auto us_since = [](std::int64_t t0) {
    return static_cast<double>(now_ns() - t0) / 1e3;
  };

  // svc: the resilient entry point (cache, breakers, fallback chain).
  svc::ResilienceOptions resilience;
  resilience.jitter_seed = calib::kRetryJitterSeed;
  std::vector<double> resilient_us;
  std::vector<bool> missed;
  {
    const calib::PredictorSet set = calib::make_predictors(bundle);
    const svc::ResilientPredictor resilient(*set.batch, resilience);
    for (const auto& request : stream) {
      const std::int64_t t0 = now_ns();
      const svc::Outcome outcome = resilient.predict(request);
      resilient_us.push_back(us_since(t0));
      missed.push_back(!outcome.ok() || !outcome.value().prediction.cached);
    }
  }
  // svc: the batch engine alone (quantization + cache).
  std::vector<double> batch_us;
  {
    const calib::PredictorSet set = calib::make_predictors(bundle);
    for (const auto& request : stream) {
      const std::int64_t t0 = now_ns();
      try {
        (void)set.batch->predict(request);
      } catch (const std::exception&) {
        // failures are counted by the resilient pass and the solver pass
      }
      batch_us.push_back(us_since(t0));
    }
  }
  // core: the method's predictor at the quantized workload, no cache.
  const calib::PredictorSet set = calib::make_predictors(bundle);
  std::map<svc::Method, std::vector<double>> core_us;
  std::vector<double> core_all_us;
  std::vector<double> startup_before;
  for (const auto& server : bundle.servers)
    startup_before.push_back(set.hybrid->startup_delay_s(server.name));
  for (const auto& request : stream) {
    const core::WorkloadSpec w = set.batch->quantized(request.workload);
    const std::int64_t t0 = now_ns();
    try {
      (void)set.batch->predictor_for(request.method)
          .predict_mean_rt_s(request.server, w);
    } catch (const core::SolverDivergedError&) {
      // counted by the solver pass below
    }
    const double us = us_since(t0);
    core_us[request.method].push_back(us);
    core_all_us.push_back(us);
  }
  double hybrid_startup_s = 0.0;
  for (std::size_t s = 0; s < bundle.servers.size(); ++s)
    hybrid_startup_s +=
        set.hybrid->startup_delay_s(bundle.servers[s].name) - startup_before[s];
  // lqn: the layered solver on the model the lqn method builds.
  std::vector<double> solve_us, iterations;
  std::size_t diverged = 0;
  const lqn::LayeredSolver solver;
  for (const auto& request : stream) {
    if (request.method != svc::Method::kLqn) continue;
    const lqn::Model model = core::build_trade_lqn(
        set.lqn->calibration(), set.lqn->server(request.server),
        set.batch->quantized(request.workload));
    const std::int64_t t0 = now_ns();
    const lqn::SolveResult result = solver.solve(model);
    solve_us.push_back(us_since(t0));
    iterations.push_back(result.iterations);
    if (!result.converged) ++diverged;
  }

  // Self time per request by difference on the same request: svc = the
  // resilient call minus the core work its cache miss needed; core = the
  // lqn method's call minus its solve. Medians, so host stalls in either
  // pass do not leak into the other layer.
  std::vector<double> svc_self, core_self;
  for (std::size_t i = 0, solved = 0; i < n; ++i) {
    svc_self.push_back(resilient_us[i] - (missed[i] ? core_all_us[i] : 0.0));
    if (stream[i].method == svc::Method::kLqn)
      core_self.push_back(core_all_us[i] - solve_us[solved++]);
  }
  sheet.set("svc.resilient_us.p50", quantile(resilient_us, 0.5), "us", n);
  sheet.set("svc.resilient_us.p99", quantile(resilient_us, 0.99), "us", n);
  sheet.set("svc.batch_us.p50", quantile(batch_us, 0.5), "us", n);
  sheet.set("svc.batch_us.p99", quantile(batch_us, 0.99), "us", n);
  const std::pair<svc::Method, const char*> methods[] = {
      {svc::Method::kHistorical, "core.historical_us"},
      {svc::Method::kLqn, "core.lqn_us"},
      {svc::Method::kHybrid, "core.hybrid_us"}};
  for (const auto& [method, name] : methods) {
    const std::vector<double>& v = core_us[method];
    sheet.set(std::string(name) + ".p50", quantile(v, 0.5), "us", v.size());
    sheet.set(std::string(name) + ".p99", quantile(v, 0.99), "us", v.size());
  }
  sheet.set("core.hybrid_startup_ms", hybrid_startup_s * 1e3, "ms");
  sheet.set("lqn.solve_us.p50", quantile(solve_us, 0.5), "us", solve_us.size());
  sheet.set("lqn.solve_us.p99", quantile(solve_us, 0.99), "us", solve_us.size());
  sheet.set("lqn.iterations.p50", quantile(iterations, 0.5), "count", iterations.size());
  sheet.set("lqn.iterations.p99", quantile(iterations, 0.99), "count", iterations.size());
  sheet.set("lqn.diverged", static_cast<double>(diverged), "count", solve_us.size());
  sheet.set("self.svc_us", median(svc_self), "us", svc_self.size());
  sheet.set("self.core_us", median(core_self), "us", core_self.size());
  sheet.set("self.lqn_us", quantile(solve_us, 0.5), "us", solve_us.size());
}

}  // namespace perfbench
