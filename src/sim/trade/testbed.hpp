// The simulated testbed: the executable stand-in for the paper's
// WebSphere + DB2 + Trade deployment (see DESIGN.md, substitutions table).
//
// run_testbed simulates a single application server plus the database
// server, driven by closed-loop clients (and optional open Poisson
// streams) grouped into service classes — exactly the unit the paper
// measures when calibrating and validating its prediction methods, since
// servers are benchmarked one at a time. It shares its request path with
// run_cluster (cluster.hpp), which simulates a tier of such servers on
// one database server.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/resources.hpp"
#include "sim/trade/operations.hpp"
#include "sim/trade/session_cache.hpp"
#include "util/rng.hpp"

namespace epp::sim::trade {

/// An application server architecture. Speed is relative to the established
/// "fast" server AppServF (speed 1.0).
struct ServerSpec {
  std::string name;
  double speed = 1.0;
  std::size_t concurrency = 50;  // concurrent requests via time-sharing
  bool established = true;       // historical data available?
};

/// The paper's three case-study servers: max throughput under the typical
/// workload ~86 (S, new), ~186 (F, established), ~320 (VF, established)
/// requests/second.
ServerSpec app_serv_s();
ServerSpec app_serv_f();
ServerSpec app_serv_vf();

/// A group of identical closed-loop clients.
enum class UserType { kBrowse, kBuy };

struct ServiceClassSpec {
  std::string name;
  UserType type = UserType::kBrowse;
  std::size_t clients = 0;
  double mean_think_time_s = 7.0;  // exponential, IBM-recommended mean
  /// If positive, this class is an *open* workload: requests arrive as a
  /// Poisson stream at this rate (the paper's section-8.1 variation of
  /// "clients sending requests at a constant rate") and `clients` /
  /// think time are ignored.
  double open_arrival_rps = 0.0;
};

/// Optional session-cache deployment (section 7.2).
struct CacheConfig {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t browse_session_bytes = 8 * 1024;
  std::uint64_t buy_session_base_bytes = 2 * 1024;
  std::uint64_t per_holding_bytes = 1024;  // portfolio growth
  double session_fetch_db_cpu_s = 0.0009;
  double session_fetch_disk_s = 0.00045;
};

struct TestbedConfig {
  ServerSpec server;
  std::vector<ServiceClassSpec> classes;
  double warmup_s = 60.0;
  double measure_s = 240.0;
  std::uint64_t seed = util::Rng::kDefaultSeed;
  std::size_t db_concurrency = 20;
  double db_speed = 1.0;
  double disk_speed = 1.0;
  std::optional<CacheConfig> cache;
};

struct ClassResult {
  std::size_t completions = 0;
  double mean_rt_s = 0.0;
  double p90_rt_s = 0.0;
  double throughput_rps = 0.0;
};

struct RunResult {
  double mean_rt_s = 0.0;
  double p90_rt_s = 0.0;
  double throughput_rps = 0.0;
  double app_cpu_utilization = 0.0;
  double db_cpu_utilization = 0.0;
  double disk_utilization = 0.0;
  double cache_miss_ratio = 0.0;
  double buy_request_fraction = 0.0;
  /// Observed mean DB calls per request (basis for LQN calibration).
  double db_calls_per_request = 0.0;
  std::map<std::string, ClassResult> per_class;
  /// Quantile over all recorded response times (q in [0,1]).
  std::vector<double> rt_samples_s;  // retained for distribution studies
};

/// Simulate one configuration and return its measurements. Deterministic
/// for a fixed config (including seed).
RunResult run_testbed(const TestbedConfig& config, bool keep_samples = false);

/// Convenience: the "typical workload" of the paper — all browse clients.
TestbedConfig typical_workload(const ServerSpec& server, std::size_t clients,
                               std::uint64_t seed = util::Rng::kDefaultSeed);

/// Mixed workload with a fraction of buy users (fig. 4 experiments).
TestbedConfig mixed_workload(const ServerSpec& server, std::size_t clients,
                             double buy_client_fraction,
                             std::uint64_t seed = util::Rng::kDefaultSeed);

/// The saturation run behind measure_max_throughput: the workload shape
/// at ~1.8x the clients the server's estimated max throughput can serve,
/// 40 s warm-up and 120 s measured.
TestbedConfig max_throughput_config(const ServerSpec& server,
                                    double buy_client_fraction = 0.0,
                                    std::uint64_t seed = util::Rng::kDefaultSeed);

/// Measure a server's max throughput under the given workload shape by
/// driving it well past saturation. Used for the "application-specific
/// benchmark run on new server architectures" the system model calls for.
double measure_max_throughput(const ServerSpec& server,
                              double buy_client_fraction = 0.0,
                              std::uint64_t seed = util::Rng::kDefaultSeed);

}  // namespace epp::sim::trade
