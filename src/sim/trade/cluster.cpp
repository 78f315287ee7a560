#include "sim/trade/cluster.hpp"

#include <span>
#include <stdexcept>

#include "sim/trade/simulation.hpp"

namespace epp::sim::trade {
namespace {

ClusterClassResult summarize(std::span<const util::SampleSet* const> sets) {
  std::size_t count = 0;
  for (const util::SampleSet* set : sets) count += set->count();
  return {count, util::mean_of(sets), util::quantile_of(sets, 0.90)};
}

ClusterRunResult collect(const Simulation& sim, std::size_t servers,
                         double end) {
  const MetricsCollector& metrics = sim.metrics();
  ClusterRunResult out;
  out.total_throughput_rps = metrics.throughput(end);
  out.db_cpu_utilization = sim.db_cpu().utilization(end);
  out.disk_utilization = sim.disk().utilization(end);
  for (std::size_t s = 0; s < servers; ++s)
    out.app_cpu_utilization.push_back(sim.app_cpu(s).utilization(end));
  // A class's figures span its buckets ("class@server") in bucket-name
  // order, so a class mean sums its samples in that order.
  std::map<std::string, std::vector<const util::SampleSet*>> per_class;
  for (const std::string& bucket : metrics.service_classes()) {
    const util::SampleSet* samples = &metrics.samples(bucket);
    out.per_bucket[bucket] = summarize({&samples, 1});
    per_class[bucket.substr(0, bucket.rfind('@'))].push_back(samples);
  }
  for (const auto& [name, sets] : per_class)
    out.per_class[name] = summarize(sets);
  return out;
}

}  // namespace

ClusterRunResult run_cluster(const ClusterConfig& config) {
  if (config.servers.empty())
    throw std::invalid_argument("Cluster: no application servers");
  if (config.classes.empty())
    throw std::invalid_argument("Cluster: no service classes");
  std::size_t total = 0;
  for (const ClusterClassSpec& cls : config.classes) {
    if (cls.clients_per_server.size() != config.servers.size())
      throw std::invalid_argument("Cluster: allocation row for class '" +
                                  cls.name +
                                  "' does not match the number of servers");
    for (const std::size_t n : cls.clients_per_server) total += n;
  }
  Simulation sim(config.servers, config.db_concurrency, config.db_speed,
                 config.disk_speed, config.warmup_s, std::nullopt);
  sim.reserve_clients(total);
  // Client RNGs are spawned in (class, server) allocation order. Each
  // populated (class, server) pair is one metrics bucket; empty pairs get
  // none.
  util::Rng rng(config.seed, 0xC1057E4);
  for (const ClusterClassSpec& spec : config.classes) {
    const std::uint32_t cls = sim.add_class(
        {spec.name, spec.type, 0, spec.mean_think_time_s, 0.0});
    for (std::uint32_t si = 0; si < config.servers.size(); ++si) {
      if (spec.clients_per_server[si] == 0) continue;
      const std::size_t bucket =
          sim.metrics().class_handle(spec.name + "@" + std::to_string(si));
      for (std::size_t i = 0; i < spec.clients_per_server[si]; ++i)
        sim.add_client(cls, si, bucket, rng.spawn());
    }
  }
  // Every client draws its first think from its own RNG.
  for (std::uint32_t c = 0; c < total; ++c) sim.think(c);
  const double end = config.warmup_s + config.measure_s;
  sim.run_until(end);
  return collect(sim, config.servers.size(), end);
}

}  // namespace epp::sim::trade
