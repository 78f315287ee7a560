// The TRADE request path, shared by run_testbed and run_cluster (internal
// to src/sim/trade).
//
// Simulates the paper's section-2 system model: a tier of application
// servers sharing one database server, which keeps one FIFO queue per
// application server. A request holds an app-server slot for its whole
// stay and alternates app-CPU slices with DB calls (DB slot -> DB CPU ->
// disk). The single-server testbed is this model with one server.
//
// Client state lives in a struct-of-arrays pool and request state in a
// recycled slab, so the steady-state path performs no heap allocation:
// timers go through the engine's raw typed dispatch, and every resource
// continuation captures only (this, index) — inside std::function's
// small-buffer optimisation.
//
// The entry points build the client pool and arm the first arrivals
// themselves: the order of RNG spawns and of initial think draws is what
// makes each of them reproducible, so it stays in their code.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/resources.hpp"
#include "sim/trade/operations.hpp"
#include "sim/trade/session_cache.hpp"
#include "sim/trade/testbed.hpp"
#include "util/rng.hpp"

namespace epp::sim::trade {

class Simulation {
 public:
  Simulation(const std::vector<ServerSpec>& servers,
             std::size_t db_concurrency, double db_speed, double disk_speed,
             double warmup_s, const std::optional<CacheConfig>& cache);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Register a client behaviour; only `type`, `mean_think_time_s` and
  /// `open_arrival_rps` are used. Returns its class index.
  std::uint32_t add_class(const ServiceClassSpec& spec);
  /// Room for `n` clients, and in the engine for their pending events.
  void reserve_clients(std::size_t n);
  /// Add a client of class `cls` routed to app server `server`, recording
  /// its response times under metrics handle `bucket`. The client id is
  /// also its session-cache key.
  std::uint32_t add_client(std::uint32_t cls, std::uint32_t server,
                           std::size_t bucket, util::Rng rng);

  /// The client issues its next request at absolute time `time`.
  void issue_at(std::uint32_t client, double time);
  /// The client thinks (a draw from its own RNG), then issues.
  void think(std::uint32_t client);
  /// Schedule an open-class client's next Poisson arrival; each arrival
  /// schedules the one after it.
  void schedule_open_arrival(std::uint32_t generator);

  void run_until(double end) { engine_.run_until(end); }

  MetricsCollector& metrics() { return metrics_; }
  const MetricsCollector& metrics() const { return metrics_; }
  const PsResource& app_cpu(std::size_t server) const {
    return *app_cpus_[server];
  }
  const PsResource& db_cpu() const { return db_cpu_; }
  const FifoResource& disk() const { return disk_; }
  const SessionCache& cache() const { return cache_; }

  /// Requests issued after warm-up, and their buys and DB calls.
  std::uint64_t measured_requests() const { return measured_requests_; }
  std::uint64_t measured_buy_requests() const { return measured_buy_requests_; }
  std::uint64_t measured_db_calls() const { return measured_db_calls_; }

 private:
  struct Request {
    double issue_time = 0.0;
    double app_slice_s = 0.0;
    double call_cpu_s = 0.0;   // per regular DB call
    double call_disk_s = 0.0;
    double fetch_cpu_s = 0.0;  // session fetch, charged as call 0
    double fetch_disk_s = 0.0;
    std::uint32_t client = 0;
    Operation op = Operation::kQuote;
    std::uint8_t total_calls = 0;
    std::uint8_t next_call = 0;
    std::uint8_t has_fetch = 0;
    std::uint8_t open_request = 0;  // from a Poisson stream, no think cycle
  };

  const ServiceClassSpec& spec_of(std::uint32_t c) const {
    return classes_[client_class_[c]];
  }
  std::uint32_t alloc_request();
  Operation next_operation(std::uint32_t c);
  std::uint64_t session_bytes(std::uint32_t c) const;

  static void think_fired(void* self, std::uint64_t client);
  static void open_arrival_fired(void* self, std::uint64_t generator);
  void issue(std::uint32_t c, bool open_request);
  void admitted(std::uint32_t r);
  void do_slice(std::uint32_t r);
  void db_call(std::uint32_t r);
  void finish(std::uint32_t r);

  Engine engine_;
  std::vector<std::unique_ptr<PsResource>> app_cpus_;  // per app server
  std::vector<std::unique_ptr<SlotPool>> app_slots_;   // per app server
  PsResource db_cpu_;
  FifoResource disk_;
  SlotPool db_slots_;  // one FIFO queue per app server
  std::optional<CacheConfig> cache_config_;
  SessionCache cache_;
  MetricsCollector metrics_;
  std::vector<ServiceClassSpec> classes_;

  // Client pool (SoA; index == client id).
  std::vector<std::uint32_t> client_class_;
  std::vector<std::uint32_t> client_server_;
  std::vector<std::size_t> client_bucket_;  // metrics handle
  std::vector<util::Rng> client_rng_;
  std::vector<std::uint8_t> logged_in_;
  std::vector<std::uint64_t> remaining_buys_;
  std::vector<std::uint64_t> portfolio_;

  std::vector<Request> requests_;
  std::vector<std::uint32_t> free_requests_;

  std::uint64_t measured_requests_ = 0;
  std::uint64_t measured_buy_requests_ = 0;
  std::uint64_t measured_db_calls_ = 0;
};

}  // namespace epp::sim::trade
