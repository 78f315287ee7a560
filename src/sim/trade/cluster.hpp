// Multi-application-server testbed (the full section-2 system model).
//
// Where `testbed.hpp` simulates one application server (the unit the paper
// benchmarks and calibrates on), this simulates a whole tier: several
// heterogeneous application servers sharing one database server that keeps
// one FIFO queue *per application server* (as the system model specifies),
// with clients partitioned across (service class, server) pairs — i.e.
// exactly the deployment a resource-manager allocation describes. It is
// used to validate Algorithm 1's allocations end-to-end by simulation
// rather than through a model stand-in. Both run on one request path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/trade/testbed.hpp"

namespace epp::sim::trade {

struct ClusterClassSpec {
  std::string name;
  UserType type = UserType::kBrowse;
  double mean_think_time_s = 7.0;
  /// clients_per_server[i] = clients of this class routed to app server i.
  std::vector<std::size_t> clients_per_server;
};

struct ClusterConfig {
  std::vector<ServerSpec> servers;
  std::vector<ClusterClassSpec> classes;
  std::size_t db_concurrency = 20;
  double db_speed = 1.0;
  double disk_speed = 1.0;
  double warmup_s = 60.0;
  double measure_s = 240.0;
  std::uint64_t seed = util::Rng::kDefaultSeed;
};

struct ClusterClassResult {
  std::size_t completions = 0;
  double mean_rt_s = 0.0;
  double p90_rt_s = 0.0;
};

struct ClusterRunResult {
  double total_throughput_rps = 0.0;
  double db_cpu_utilization = 0.0;
  double disk_utilization = 0.0;
  std::vector<double> app_cpu_utilization;  // per server
  /// Response times per (service class, server) routing bucket, keyed
  /// "class@server-index", plus per-class aggregates keyed by class name.
  std::map<std::string, ClusterClassResult> per_bucket;
  std::map<std::string, ClusterClassResult> per_class;
};

/// Simulate the cluster. Throws std::invalid_argument on malformed
/// configurations (no servers, allocation rows not matching the tier).
ClusterRunResult run_cluster(const ClusterConfig& config);

}  // namespace epp::sim::trade
