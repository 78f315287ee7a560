// Figure 2 — mean response time predictions for the typical workload on
// new and established server architectures: measured curves vs historical
// and layered-queuing predictions for AppServS/F/VF.
//
// Expected shape (paper): both methods track the measured hockey-stick
// curves; historical is the more accurate on mean response time
// (89.1%/83% est/new vs 68.8%/73.4% for the LQN), while both predict
// throughput to within a few percent.
#include <iostream>

#include "common.hpp"
#include "util/table.hpp"

int main() {
  using namespace epp;
  std::cout << "== Figure 2: mean response time predictions, typical "
               "workload ==\n\n";

  bench::Setup setup;
  const std::vector<double> fractions{0.2, 0.4, 0.6, 0.8, 1.0,
                                      1.2, 1.4, 1.7, 2.0};

  for (const std::string& server : bench::server_names()) {
    const bool is_new = server == "AppServS";
    std::cout << "-- " << server << (is_new ? " (new architecture)" : " (established)")
              << ", max throughput " << util::fmt(setup.max_tput(server), 1)
              << " req/s --\n";
    const auto measured = setup.validation_sweep(server, fractions);
    util::Table table({"clients", "measured_rt_ms", "historical_rt_ms",
                       "lqn_rt_ms", "measured_tput_rps", "hist_tput_rps",
                       "lqn_tput_rps"});
    for (const core::MeasuredPoint& p : measured) {
      core::WorkloadSpec w;
      w.browse_clients = p.clients;
      const core::Prediction hist = setup.historical->predict(server, w);
      const core::Prediction lqn = setup.lqn->predict(server, w);
      table.add_row({util::fmt(p.clients, 0), util::fmt(p.mean_rt_s * 1e3, 1),
                     util::fmt(hist.mean_rt_s * 1e3, 1),
                     util::fmt(lqn.mean_rt_s * 1e3, 1),
                     util::fmt(p.throughput_rps, 1),
                     util::fmt(hist.throughput_rps, 1),
                     util::fmt(lqn.throughput_rps, 1)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "expected shape: flat response below the knee at "
               "max-throughput load, then linear growth (slope 1/max "
               "throughput); throughput linear with gradient m then flat.\n";
  return 0;
}
