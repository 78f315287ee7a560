#include "rm/manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

namespace epp::rm {

ResourceManager::ResourceManager(const core::Predictor& predictor,
                                 ManagerOptions options)
    : predictor_(predictor), options_(options) {
  if (options_.slack < 0.0)
    throw std::invalid_argument("ResourceManager: negative slack");
  if (options_.capacity_resolution <= 0.0)
    throw std::invalid_argument("ResourceManager: bad capacity resolution");
}

std::optional<double> ResourceManager::probe(
    const CapacityQuery& query, const PoolServer& server,
    const std::map<std::string, double>& existing,
    const std::vector<ServiceClassSpec>& all_classes,
    const ServiceClassSpec& cls, int& prediction_evaluations) {
  double existing_total = 0.0, existing_buy = 0.0;
  double goal = cls.rt_goal_s;
  for (const ServiceClassSpec& c : all_classes) {
    const auto it = existing.find(c.name);
    if (it == existing.end() || it->second <= 0.0) continue;
    existing_total += it->second;
    if (c.is_buy) existing_buy += it->second;
    goal = std::min(goal, c.rt_goal_s);
  }

  // The workload mix depends on how many clients end up added, so refine
  // the capacity with a couple of fixed-point passes over the mix.
  double extra = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const double total_guess = existing_total + extra;
    const double buy_guess = existing_buy + (cls.is_buy ? extra : 0.0);
    const double mix = total_guess > 0.0 ? buy_guess / total_guess
                                         : (cls.is_buy ? 1.0 : 0.0);
    const std::optional<core::CapacityResult> cap = query(server, goal, mix);
    if (!cap) return std::nullopt;
    prediction_evaluations += cap->prediction_evaluations;
    extra = std::max(0.0, cap->max_clients - existing_total);
  }
  return extra;
}

ResourceManager::CapacityQuery ResourceManager::model_query() const {
  return [this](const PoolServer& server, double goal_s, double buy_fraction)
             -> std::optional<core::CapacityResult> {
    return predictor_.max_clients_for_goal(server.arch, goal_s, buy_fraction,
                                           options_.think_time_s);
  };
}

double ResourceManager::additional_capacity(
    const PoolServer& server, const std::map<std::string, double>& existing,
    const std::vector<ServiceClassSpec>& all_classes,
    const ServiceClassSpec& cls, int& prediction_evaluations) const {
  return *probe(model_query(), server, existing, all_classes, cls,
                prediction_evaluations);
}

Allocation ResourceManager::allocate(
    std::vector<ServiceClassSpec> classes,
    const std::vector<PoolServer>& servers) const {
  return run_allocation(std::move(classes), servers, model_query());
}

Allocation ResourceManager::allocate(std::vector<ServiceClassSpec> classes,
                                     const std::vector<PoolServer>& servers,
                                     const svc::ResilientPredictor& resilient,
                                     svc::Method method) const {
  return run_allocation(
      std::move(classes), servers,
      [&, method](const PoolServer& server, double goal_s,
                  double buy_fraction) -> std::optional<core::CapacityResult> {
        const svc::CapacityOutcome outcome = resilient.max_clients_for_goal(
            method, server.arch, goal_s, buy_fraction, options_.think_time_s);
        if (!outcome.ok()) return std::nullopt;
        return outcome.value();
      });
}

Allocation ResourceManager::run_allocation(
    std::vector<ServiceClassSpec> classes,
    const std::vector<PoolServer>& servers,
    const CapacityQuery& query) const {
  // Line 1: strictest response-time goal first; with insufficient servers
  // the lower-priority (looser-goal) classes are rejected first.
  std::sort(classes.begin(), classes.end(),
            [](const ServiceClassSpec& a, const ServiceClassSpec& b) {
              return a.rt_goal_s < b.rt_goal_s;
            });

  Allocation allocation;
  allocation.slack = options_.slack;
  allocation.per_server.resize(servers.size());

  for (const ServiceClassSpec& cls : classes) {
    double remaining = options_.slack * cls.clients;
    while (remaining > 0.5 * options_.capacity_resolution) {
      // Probe every server's predicted additional capacity for this class.
      std::vector<double> capacity(servers.size());
      for (std::size_t i = 0; i < servers.size(); ++i) {
        const std::optional<double> extra =
            probe(query, servers[i], allocation.per_server[i], classes, cls,
                  allocation.prediction_evaluations);
        // A failed probe is planned around, not fatal: the server just
        // offers nothing this round. A probe's failure depends only on
        // its question, so the next round asks that server again.
        if (!extra) ++allocation.failed_probes;
        capacity[i] = extra.value_or(0.0);
      }

      // Greedy selection: most capacity wins... unless one server can
      // finish the class, in which case take the *smallest* sufficient one
      // (the paper's last-server exception).
      std::size_t chosen = servers.size();
      double chosen_cap = 0.0;
      for (std::size_t i = 0; i < servers.size(); ++i) {
        if (capacity[i] < remaining) continue;
        if (chosen == servers.size() || capacity[i] < chosen_cap) {
          chosen = i;
          chosen_cap = capacity[i];
        }
      }
      if (chosen == servers.size()) {
        for (std::size_t i = 0; i < servers.size(); ++i) {
          if (capacity[i] > chosen_cap) {
            chosen = i;
            chosen_cap = capacity[i];
          }
        }
      }
      if (chosen == servers.size() ||
          chosen_cap < options_.capacity_resolution) {
        allocation.unallocated_scaled += remaining;
        allocation.unallocated_by_class[cls.name] += remaining;
        break;  // line 8: no server has available capacity for this class
      }
      const double take = std::min(chosen_cap, remaining);
      allocation.per_server[chosen][cls.name] += take;
      remaining -= take;
    }
  }
  return allocation;
}

}  // namespace epp::rm
