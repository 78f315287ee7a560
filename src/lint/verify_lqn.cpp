// EPP-SEM-010..012: the LQN convergence pre-checker. Reads the layered
// solver's own flattening (lqn::flatten: processor stations, surrogate
// thread-pool stations, light-load demands) to decide *statically*
// whether the solve can succeed, instead of letting a sweep discover it
// minutes in:
//
//   * SEM-010 — open-class arrivals offer utilization >= 1 at a station;
//     the MVA core refuses such models with a std::domain_error.
//   * SEM-011/012 — the layered surrogate-demand fixed point is a
//     contraction only while priority starvation stays bounded. We
//     estimate a contraction factor from three necessary ingredients of
//     every observed divergence: high-priority utilization pressure at a
//     shared station (U_high), the starved class actually competing there
//     (u_low), and a finite thread pool feeding queue growth back into
//     the surrogate demand (Q_low, population per thread). The estimate
//       kappa = min(U_high / 2.5, u_low / 9.0, Q_low / 90.0)
//     is calibrated so every diverging probe model scores >= 1 (error)
//     or lands in the [0.5, 1) at-risk band (warning) while all
//     converging pipeline models stay below 0.5. It is an honest
//     heuristic bound, not a proof — which is why only the >= 1 band is
//     an error.
#include "lint/verify.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "lqn/solver.hpp"

namespace epp::lint {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

void run_convergence_checks(const lqn::Model& model, const std::string& file,
                            Diagnostics& diagnostics,
                            const lqn::DeclarationLines& lines) {
  model.validate();
  const lqn::Flattened f = lqn::flatten(model);
  const std::vector<lqn::TaskId>& refs = f.refs;
  const std::vector<lqn::TaskId>& open_refs = f.open_refs;
  const std::vector<lqn::Station>& stations = f.network.stations;
  const std::vector<std::vector<double>>& demands = f.network.demands;
  const std::size_t nc = refs.size();
  const std::size_t no = open_refs.size();
  const auto servers = [&](std::size_t s) {
    return static_cast<double>(stations[s].servers);
  };
  const auto is_delay = [&](std::size_t s) {
    return stations[s].kind == lqn::StationKind::kDelay;
  };

  // --- SEM-010: open arrivals must leave every queueing station spare
  // capacity, or the MVA core throws before producing anything.
  if (no > 0) {
    for (std::size_t s = 0; s < stations.size(); ++s) {
      if (is_delay(s)) continue;
      double util = 0.0;
      for (std::size_t c = 0; c < no; ++c)
        util += model.task(open_refs[c]).arrival_rate_rps *
                f.network.open_classes[c].demands[s];
      util /= servers(s);
      if (util >= 1.0) {
        diagnostics.error(
            "EPP-SEM-010", {file, lines.task(open_refs[0])},
            "open arrivals saturate station '" + stations[s].name +
                "': offered utilization " + fmt_value(util) +
                " >= 1, the MVA solver will refuse this model",
            "reduce arrival rates or add capacity so that "
            "sum(lambda * demand) / servers < 1 at every station");
      }
    }
  }

  // --- SEM-011/012: contraction estimate for the layered fixed point
  // under priority starvation with finite-pool feedback.
  if (nc < 2) return;
  bool priorities_differ = false;
  for (std::size_t c = 1; c < nc; ++c)
    priorities_differ =
        priorities_differ ||
        model.task(refs[c]).priority != model.task(refs[0]).priority;
  if (!priorities_differ) return;

  std::vector<double> x_unc(nc, 0.0);  // uncontended throughput bound
  for (std::size_t c = 0; c < nc; ++c) {
    double total_demand = 0.0;
    for (double d : demands[c]) total_demand += d;
    const double cycle = f.network.think_time_s[c] + total_demand;
    if (cycle > 0.0) x_unc[c] = model.task(refs[c]).population / cycle;
  }

  double kappa = 0.0;
  std::size_t kappa_class = kNpos, kappa_station = kNpos;
  for (std::size_t s = 0; s < f.station_proc.size(); ++s) {
    if (is_delay(s)) continue;
    for (std::size_t l = 0; l < nc; ++l) {
      const int prio_l = model.task(refs[l]).priority;
      double u_high = 0.0;
      for (std::size_t c = 0; c < nc; ++c)
        if (model.task(refs[c]).priority > prio_l)
          u_high += x_unc[c] * demands[c][s] / servers(s);
      if (u_high <= 0.0) continue;
      const double u_low = x_unc[l] * demands[l][s] / servers(s);
      if (u_low <= 0.0) continue;
      // Feedback strength: the starved population per thread of a finite
      // pool whose subtree contains this station. No qualifying pool
      // means queue growth cannot feed back into surrogate demands.
      double q_low = 0.0;
      for (const lqn::TaskId t : f.finite_tasks) {
        if (f.task_visits[l][t] <= 0.0 ||
            f.below_proc_stations[t].count(s) == 0)
          continue;
        const double m = static_cast<double>(model.task(t).multiplicity);
        q_low = std::max(q_low, model.task(refs[l]).population / m);
      }
      if (q_low <= 0.0) continue;
      const double estimate =
          std::min(u_high / 2.5, std::min(u_low / 9.0, q_low / 90.0));
      if (estimate > kappa) {
        kappa = estimate;
        kappa_class = l;
        kappa_station = s;
      }
    }
  }
  if (kappa < 0.5 || kappa_class == kNpos) return;
  const std::string& cls = model.task(refs[kappa_class]).name;
  const std::string& station = stations[kappa_station].name;
  const SourceLocation where{file, lines.task(refs[kappa_class])};
  if (kappa >= 1.0) {
    diagnostics.error(
        "EPP-SEM-011", where,
        "layered solve cannot converge: class '" + cls +
            "' is priority-starved at station '" + station +
            "' with finite-pool feedback (contraction estimate " +
            fmt_value(kappa) + " >= 1)",
        "raise '" + cls +
            "' priority, shrink its population, or add capacity at '" +
            station +
            "'; at runtime the layered solver exhausts its iteration "
            "budget (SolverDivergedError)");
  } else {
    diagnostics.warning(
        "EPP-SEM-012", where,
        "layered convergence at risk: class '" + cls +
            "' is priority-starved at station '" + station +
            "' with finite-pool feedback (contraction estimate " +
            fmt_value(kappa) + " in [0.5, 1))",
        "expect slow convergence; raising '" + cls +
            "' priority or adding capacity at '" + station +
            "' restores a safe margin");
  }
}

}  // namespace

void verify_lqn_model(const lqn::Model& model, const std::string& file,
                      Diagnostics& diagnostics,
                      const lqn::DeclarationLines& lines) {
  // The pre-checker needs a structurally valid (lint-clean) model; on
  // anything else validate() throws and it stays silent rather than
  // crash the pre-flight — a malformed model is the structural rules'
  // finding, not ours.
  try {
    run_convergence_checks(model, file, diagnostics, lines);
  } catch (const std::exception&) {
  }
}

}  // namespace epp::lint
