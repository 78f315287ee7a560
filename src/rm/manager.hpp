// Algorithm 1: the prediction-enhanced resource-management algorithm.
//
//   1. sort the service classes in order of increasing response time goal
//   2-8. greedily allocate each class's clients to application servers,
//        selecting the server the performance model predicts can take the
//        most clients of the current class — except for the class's last
//        server, where the smallest sufficient server is chosen instead.
//
// The "slack" parameter multiplies each class's client count before
// allocation; it is the paper's tuning knob for compensating predictive
// inaccuracy and trading SLA failures against server usage (section 9).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "rm/types.hpp"
#include "svc/resilient.hpp"

namespace epp::rm {

struct ManagerOptions {
  double slack = 1.0;
  double think_time_s = 7.0;
  /// Granularity of the capacity bisection in clients.
  double capacity_resolution = 1.0;
};

class ResourceManager {
 public:
  /// The predictor is the (possibly inaccurate) model the manager plans
  /// with — the paper uses the hybrid model here.
  ResourceManager(const core::Predictor& predictor, ManagerOptions options);

  const ManagerOptions& options() const noexcept { return options_; }

  /// Run Algorithm 1 over the classes and servers.
  Allocation allocate(std::vector<ServiceClassSpec> classes,
                      const std::vector<PoolServer>& servers) const;

  /// Fault-tolerant Algorithm 1: capacity probes go through the resilient
  /// serving layer and come back as typed outcomes. A probe that fails —
  /// solver divergence, a failed fit, deadline — scores that server as
  /// zero additional capacity for the round (counted in
  /// Allocation::failed_probes) instead of aborting the whole allocation,
  /// so degraded servers are simply planned around.
  Allocation allocate(std::vector<ServiceClassSpec> classes,
                      const std::vector<PoolServer>& servers,
                      const svc::ResilientPredictor& resilient,
                      svc::Method method) const;

  /// Predicted additional clients of `cls` that server i could take on top
  /// of an existing allocation without the model predicting an SLA miss
  /// for any class on the server (capacity probe used by the algorithm).
  double additional_capacity(const PoolServer& server,
                             const std::map<std::string, double>& existing,
                             const std::vector<ServiceClassSpec>& all_classes,
                             const ServiceClassSpec& cls,
                             int& prediction_evaluations) const;

 private:
  /// One capacity question — clients a server can hold at a response-
  /// time goal and buy fraction — or nullopt when the probe failed.
  using CapacityQuery = std::function<std::optional<core::CapacityResult>(
      const PoolServer&, double goal_s, double buy_fraction)>;

  /// Clients of `cls` the server can take on top of `existing`, asking
  /// `query` once per mix-refinement pass; nullopt on the first failed
  /// pass (evaluations of the passes that succeeded stay counted).
  static std::optional<double> probe(
      const CapacityQuery& query, const PoolServer& server,
      const std::map<std::string, double>& existing,
      const std::vector<ServiceClassSpec>& all_classes,
      const ServiceClassSpec& cls, int& prediction_evaluations);

  /// The planning predictor as a query; its failures throw.
  CapacityQuery model_query() const;

  Allocation run_allocation(std::vector<ServiceClassSpec> classes,
                            const std::vector<PoolServer>& servers,
                            const CapacityQuery& query) const;

  const core::Predictor& predictor_;
  ManagerOptions options_;
};

}  // namespace epp::rm
