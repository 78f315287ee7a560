// Shared types of the prediction-enhanced resource manager (paper §9):
// SLA-constrained service classes, the server pool, and the allocation an
// Algorithm-1 run produces.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace epp::rm {

/// A workload service class with an SLA response-time goal.
struct ServiceClassSpec {
  std::string name;
  double rt_goal_s = 0.0;
  bool is_buy = false;   // buy classes shift the mix (relationship 3)
  double clients = 0.0;  // real (unscaled) clients to be placed
};

/// One application server in the provider's pool.
struct PoolServer {
  std::string arch;        // predictor architecture name, e.g. "AppServS"
  double power_rps = 0.0;  // processing power = max throughput under the
                           // typical workload (the % server usage unit)
};

/// Result of running the allocation algorithm.
struct Allocation {
  /// per_server[i][class name] = clients allocated (slack-scaled units).
  std::vector<std::map<std::string, double>> per_server;
  double slack = 1.0;
  /// Clients (scaled units) that could not be placed anywhere.
  double unallocated_scaled = 0.0;
  std::map<std::string, double> unallocated_by_class;  // scaled units
  /// Cost of the run in performance-model queries (section 8.5).
  int prediction_evaluations = 0;
  /// Resilient runs only: capacity probes that returned a typed error
  /// (divergence, a failed fit, deadline) and were scored as capacity 0
  /// instead of aborting the allocation.
  int failed_probes = 0;

  double scaled_on_server(std::size_t i) const;
  double buy_scaled_on_server(std::size_t i,
                              const std::vector<ServiceClassSpec>& classes) const;
  bool server_used(std::size_t i) const { return scaled_on_server(i) > 0.0; }
};

/// The paper's 16-server scenario: 8 new AppServS + 4 AppServF +
/// 4 AppServVF, with powers from the measured max throughputs.
std::vector<PoolServer> standard_pool(double power_s = 86.0,
                                      double power_f = 186.0,
                                      double power_vf = 320.0);

/// The paper's workload: 10% buy clients (150 ms goal), 45% high-priority
/// browse (300 ms), 45% low-priority browse (600 ms).
std::vector<ServiceClassSpec> standard_classes(double total_clients);

}  // namespace epp::rm
