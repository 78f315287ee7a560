#include "sim/trade/testbed.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/trade/simulation.hpp"

namespace epp::sim::trade {

ServerSpec app_serv_s() { return {"AppServS", 86.0 / 186.0, 50, false}; }
ServerSpec app_serv_f() { return {"AppServF", 1.0, 50, true}; }
ServerSpec app_serv_vf() { return {"AppServVF", 320.0 / 186.0, 50, true}; }

namespace {

RunResult collect(const TestbedConfig& config, const Simulation& sim,
                  double end, bool keep_samples) {
  const MetricsCollector& metrics = sim.metrics();
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  RunResult out;
  out.mean_rt_s = metrics.mean_response_time();
  out.p90_rt_s = metrics.response_time_quantile(0.90);
  out.throughput_rps = metrics.throughput(end);
  out.app_cpu_utilization = sim.app_cpu(0).utilization(end);
  out.db_cpu_utilization = sim.db_cpu().utilization(end);
  out.disk_utilization = sim.disk().utilization(end);
  out.cache_miss_ratio = sim.cache().miss_ratio();
  out.buy_request_fraction =
      ratio(sim.measured_buy_requests(), sim.measured_requests());
  out.db_calls_per_request =
      ratio(sim.measured_db_calls(), sim.measured_requests());
  for (const auto& spec : config.classes) {
    ClassResult cr;
    cr.completions = metrics.completions(spec.name);
    cr.mean_rt_s = metrics.mean_response_time(spec.name);
    cr.p90_rt_s = metrics.response_time_quantile(spec.name, 0.90);
    cr.throughput_rps = metrics.throughput(spec.name, end);
    out.per_class[spec.name] = cr;
  }
  if (keep_samples) {
    out.rt_samples_s.reserve(metrics.total_completions());
    for (const auto& name : metrics.service_classes())
      for (double s : metrics.samples(name).samples())
        out.rt_samples_s.push_back(s);
  }
  return out;
}

}  // namespace

RunResult run_testbed(const TestbedConfig& config, bool keep_samples) {
  if (config.classes.empty())
    throw std::invalid_argument("Testbed: no service classes");
  Simulation sim({config.server}, config.db_concurrency, config.db_speed,
                 config.disk_speed, config.warmup_s, config.cache);
  util::Rng rng(config.seed, 0x7E57BED);
  std::size_t closed_total = 0;
  for (const auto& spec : config.classes)
    if (spec.open_arrival_rps <= 0.0) closed_total += spec.clients;
  sim.reserve_clients(closed_total + config.classes.size());
  // Client RNGs are spawned in class order. An open class gets one
  // generator client, whose pool slot also keys its session-cache entry.
  std::vector<std::uint32_t> closed;
  std::vector<std::uint32_t> generators;
  closed.reserve(closed_total);
  for (const auto& spec : config.classes) {
    const std::uint32_t cls = sim.add_class(spec);
    const std::size_t bucket = sim.metrics().class_handle(spec.name);
    if (spec.open_arrival_rps > 0.0) {
      generators.push_back(sim.add_client(cls, 0, bucket, rng.spawn()));
      continue;
    }
    for (std::size_t i = 0; i < spec.clients; ++i)
      closed.push_back(sim.add_client(cls, 0, bucket, rng.spawn()));
  }
  // First thinks are drawn in one bulk pass per closed class
  // (util::Rng::fill_exponential) from a dedicated arrival stream.
  util::Rng arrivals = rng.spawn();
  std::vector<double> thinks;
  std::size_t next = 0;
  for (const auto& spec : config.classes) {
    if (spec.open_arrival_rps > 0.0) continue;
    thinks.resize(spec.clients);
    arrivals.fill_exponential(spec.mean_think_time_s, thinks.data(),
                              spec.clients);
    for (const double t : thinks) sim.issue_at(closed[next++], t);
  }
  for (const std::uint32_t g : generators) sim.schedule_open_arrival(g);
  const double end = config.warmup_s + config.measure_s;
  sim.run_until(end);
  return collect(config, sim, end, keep_samples);
}

TestbedConfig typical_workload(const ServerSpec& server, std::size_t clients,
                               std::uint64_t seed) {
  TestbedConfig config;
  config.server = server;
  config.classes.push_back({"browse", UserType::kBrowse, clients, 7.0});
  config.seed = seed;
  return config;
}

TestbedConfig mixed_workload(const ServerSpec& server, std::size_t clients,
                             double buy_client_fraction, std::uint64_t seed) {
  if (buy_client_fraction < 0.0 || buy_client_fraction > 1.0)
    throw std::invalid_argument("mixed_workload: fraction outside [0,1]");
  TestbedConfig config;
  config.server = server;
  const auto buyers =
      static_cast<std::size_t>(std::llround(buy_client_fraction * static_cast<double>(clients)));
  const std::size_t browsers = clients - buyers;
  if (browsers > 0)
    config.classes.push_back({"browse", UserType::kBrowse, browsers, 7.0});
  if (buyers > 0)
    config.classes.push_back({"buy", UserType::kBuy, buyers, 7.0});
  config.seed = seed;
  return config;
}

TestbedConfig max_throughput_config(const ServerSpec& server,
                                    double buy_client_fraction,
                                    std::uint64_t seed) {
  // Drive the server well past saturation: throughput then plateaus at its
  // max (the paper's "after max throughput ... roughly constant").
  const double est_max_rps =
      186.0 * server.speed / (1.0 + 0.9 * buy_client_fraction);
  const auto clients = static_cast<std::size_t>(std::ceil(est_max_rps * 7.0 * 1.8));
  TestbedConfig config = mixed_workload(server, clients, buy_client_fraction, seed);
  config.warmup_s = 40.0;
  config.measure_s = 120.0;
  return config;
}

double measure_max_throughput(const ServerSpec& server,
                              double buy_client_fraction, std::uint64_t seed) {
  return run_testbed(max_throughput_config(server, buy_client_fraction, seed))
      .throughput_rps;
}

}  // namespace epp::sim::trade
