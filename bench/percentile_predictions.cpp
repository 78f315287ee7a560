// Section 7.1 — response-time distribution predictions: converting each
// method's mean prediction into a 90th-percentile prediction through the
// regime distributions (exponential before max throughput,
// double-exponential after, with a scale b calibrated once on an
// established server; 204.1 ms in the paper).
//
// Paper accuracies (p = 90%): historical 80%/88% (new/established), LQN
// 77%/69%, hybrid 77%/70% — each within ~4.6% of the corresponding mean
// response time accuracy.
#include <iostream>

#include "common.hpp"
#include "dist/rtdist.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace epp;
  std::cout << "== Section 7.1: 90th-percentile response time predictions "
               "==\n\n";

  bench::Setup setup;

  // Calibrate the regime distributions once on the established AppServF:
  // one pre-saturation and one post-saturation run's samples give (a) the
  // double-exponential scale b of the paper's equation 7 and (b) the
  // measured p90-vs-mean shapes the paper extrapolates across servers.
  auto sampled_run = [&](double knee_fraction, std::uint64_t seed) {
    sim::trade::TestbedConfig config = sim::trade::typical_workload(
        sim::trade::app_serv_f(),
        static_cast<std::size_t>(knee_fraction * setup.n_star("AppServF")),
        seed);
    config.warmup_s = 40.0;
    config.measure_s = 160.0;
    return sim::trade::run_testbed(config, /*keep_samples=*/true);
  };
  const auto pre_run = sampled_run(0.5, 0xA11CE);
  const auto post_run = sampled_run(1.4, 0xB0B);
  const double scale_b =
      dist::calibrate_scale_b(post_run.rt_samples_s, post_run.mean_rt_s);
  const auto extrapolator = dist::PercentileExtrapolator::calibrate(
      0.90, pre_run.rt_samples_s, post_run.rt_samples_s);
  std::cout << "calibrated double-exponential scale b = "
            << util::fmt(scale_b * 1e3, 1)
            << " ms (paper's testbed: 204.1 ms)\n"
            << "measured shape: pre-saturation p90/mean = "
            << util::fmt(extrapolator.pre_ratio(), 2)
            << ", post-saturation p90-mean = "
            << util::fmt(extrapolator.post_offset_s() * 1e3, 1) << " ms\n\n";

  const std::vector<double> fractions{0.3, 0.5, 0.65, 1.3, 1.8};
  util::Table table({"method", "server", "p90_accuracy_pct",
                     "analytic_eq6_eq7_pct", "mean_rt_accuracy_pct",
                     "delta_pct"});
  for (const std::string& server : bench::server_names()) {
    const auto measured = setup.validation_sweep(server, fractions);
    for (const core::Predictor* predictor :
         {static_cast<const core::Predictor*>(setup.historical.get()),
          static_cast<const core::Predictor*>(setup.lqn.get()),
          static_cast<const core::Predictor*>(setup.hybrid.get())}) {
      std::vector<double> p90_pred, p90_analytic, p90_meas;
      for (const core::MeasuredPoint& p : measured) {
        core::WorkloadSpec w;
        w.browse_clients = p.clients;
        // One evaluation serves both p90 estimates: the same mean and
        // regime that predict_percentile_rt_s would derive from it.
        const core::Prediction at = predictor->predict(server, w);
        const bool post = predictor->predicts_saturated(server, w, at);
        p90_pred.push_back(extrapolator.predict(at.mean_rt_s, post));
        p90_analytic.push_back(
            dist::predict_percentile(at.mean_rt_s, 0.90, post, scale_b));
        p90_meas.push_back(p.p90_rt_s);
      }
      const double p90_acc = util::prediction_accuracy_percent(p90_pred, p90_meas);
      const double analytic_acc =
          util::prediction_accuracy_percent(p90_analytic, p90_meas);
      const double rt_acc =
          core::accuracy_against(*predictor, server, measured).mean_rt_pct;
      table.add_row({predictor->name(), server, util::fmt(p90_acc, 1),
                     util::fmt(analytic_acc, 1), util::fmt(rt_acc, 1),
                     util::fmt(p90_acc - rt_acc, 1)});
    }
  }
  table.print(std::cout);

  // The historical method can also record p90 as a variable and predict it
  // *directly* (section 7.1's closing remark) — no extrapolation step.
  std::cout << "\n-- historical method, direct p90 model --\n";
  util::Table direct({"server", "direct_p90_accuracy_pct"});
  for (const std::string& server : bench::server_names()) {
    const auto measured = setup.validation_sweep(server, fractions);
    std::vector<double> pred, meas;
    for (const core::MeasuredPoint& p : measured) {
      pred.push_back(setup.historical->predict_p90_direct(server, p.clients));
      meas.push_back(p.p90_rt_s);
    }
    direct.add_row({server,
                    util::fmt(util::prediction_accuracy_percent(pred, meas), 1)});
  }
  direct.print(std::cout);

  std::cout << "\nexpected shape: with the measured-shape extrapolation the "
               "percentile accuracy stays within a few points of the mean-RT "
               "accuracy (the paper's <= 4.6% gap); the pure analytic "
               "exponential/double-exponential forms (equations 6/7) are "
               "rougher on this testbed.\n";
  return 0;
}
