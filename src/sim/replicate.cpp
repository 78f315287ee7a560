#include "sim/replicate.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace epp::sim {
namespace {

/// Completion-weighted average: Σ value_i · weight_i / Σ weight_i.
class WeightedMean {
 public:
  void add(double value, double weight) noexcept {
    sum_ += value * weight;
    weight_ += weight;
  }
  double get() const noexcept { return weight_ > 0.0 ? sum_ / weight_ : 0.0; }

 private:
  double sum_ = 0.0;
  double weight_ = 0.0;
};

std::size_t total_completions(const trade::RunResult& r) {
  std::size_t n = 0;
  for (const auto& [_, cr] : r.per_class) n += cr.completions;
  return n;
}

template <typename Fn>
void for_each_index(std::size_t n, util::ThreadPool* pool, const Fn& fn) {
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace

std::uint64_t replication_seed(std::uint64_t base, std::size_t index) {
  if (index == 0) return base;  // 1 replication == a plain run, bitwise
  util::Rng derive(base, 0x5EEDFA9ULL);
  std::uint64_t seed = base;
  for (std::size_t i = 0; i < index; ++i) seed = derive();
  return seed;
}

ReplicatedResult run_replications(const trade::TestbedConfig& config,
                                  const ReplicationOptions& options) {
  const std::size_t n = options.replications;
  if (n == 0)
    throw std::invalid_argument("run_replications: zero replications");

  ReplicatedResult out;
  out.per_replication.resize(n);
  // Each lane writes only its own slot; the merge below walks the slots in
  // index order, so the result does not depend on execution interleaving.
  for_each_index(n, options.pool, [&](std::size_t i) {
    trade::TestbedConfig rep = config;
    rep.seed = replication_seed(config.seed, i);
    out.per_replication[i] = trade::run_testbed(rep, options.keep_samples);
  });

  if (n == 1) {
    // One replication IS the plain run — copy it through untouched so the
    // result is bitwise identical (a weighted merge of one value can
    // round differently in the last ulp).
    out.summary = out.per_replication[0];
    return out;
  }

  trade::RunResult& s = out.summary;
  WeightedMean mean_rt, p90_rt, buy_frac, db_calls, miss_ratio;
  util::OnlineStats rep_means;
  std::map<std::string, WeightedMean> class_mean, class_p90;
  for (const trade::RunResult& r : out.per_replication) {
    const auto weight = static_cast<double>(total_completions(r));
    mean_rt.add(r.mean_rt_s, weight);
    p90_rt.add(r.p90_rt_s, weight);
    buy_frac.add(r.buy_request_fraction, weight);
    db_calls.add(r.db_calls_per_request, weight);
    miss_ratio.add(r.cache_miss_ratio, weight);
    s.throughput_rps += r.throughput_rps;
    s.app_cpu_utilization += r.app_cpu_utilization;
    s.db_cpu_utilization += r.db_cpu_utilization;
    s.disk_utilization += r.disk_utilization;
    rep_means.add(r.mean_rt_s);
    for (const auto& [name, cr] : r.per_class) {
      trade::ClassResult& merged = s.per_class[name];
      const auto w = static_cast<double>(cr.completions);
      merged.completions += cr.completions;
      merged.throughput_rps += cr.throughput_rps;
      class_mean[name].add(cr.mean_rt_s, w);
      class_p90[name].add(cr.p90_rt_s, w);
    }
    if (options.keep_samples)
      s.rt_samples_s.insert(s.rt_samples_s.end(), r.rt_samples_s.begin(),
                            r.rt_samples_s.end());
  }
  const auto dn = static_cast<double>(n);
  s.mean_rt_s = mean_rt.get();
  s.p90_rt_s = p90_rt.get();
  s.buy_request_fraction = buy_frac.get();
  s.db_calls_per_request = db_calls.get();
  s.cache_miss_ratio = miss_ratio.get();
  s.throughput_rps /= dn;
  s.app_cpu_utilization /= dn;
  s.db_cpu_utilization /= dn;
  s.disk_utilization /= dn;
  for (auto& [name, merged] : s.per_class) {
    merged.throughput_rps /= dn;
    merged.mean_rt_s = class_mean[name].get();
    merged.p90_rt_s = class_p90[name].get();
  }
  out.mean_rt_stddev_s = rep_means.stddev();
  out.mean_rt_ci95_s = rep_means.ci95_halfwidth();
  return out;
}

std::vector<trade::RunResult> run_testbeds(const std::vector<TestbedRun>& runs,
                                           util::ThreadPool* pool) {
  const auto cost = [](const TestbedRun& run) {
    std::size_t clients = 0;
    for (const auto& spec : run.config.classes)
      if (spec.open_arrival_rps <= 0.0) clients += spec.clients;
    return static_cast<double>(clients) *
           (run.config.warmup_s + run.config.measure_s) *
           static_cast<double>(run.replications);
  };
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cost(runs[a]) > cost(runs[b]);
  });
  std::vector<trade::RunResult> results(runs.size());
  for_each_index(runs.size(), pool, [&](std::size_t k) {
    const TestbedRun& run = runs[order[k]];
    ReplicationOptions options;
    options.replications = run.replications;
    results[order[k]] = run_replications(run.config, options).summary;
  });
  return results;
}

ClusterReplicatedResult run_cluster_replications(
    const trade::ClusterConfig& config, const ReplicationOptions& options) {
  const std::size_t n = options.replications;
  if (n == 0)
    throw std::invalid_argument("run_cluster_replications: zero replications");

  ClusterReplicatedResult out;
  out.per_replication.resize(n);
  for_each_index(n, options.pool, [&](std::size_t i) {
    trade::ClusterConfig rep = config;
    rep.seed = replication_seed(config.seed, i);
    out.per_replication[i] = trade::run_cluster(rep);
  });

  if (n == 1) {
    out.summary = out.per_replication[0];
    return out;
  }

  trade::ClusterRunResult& s = out.summary;
  std::map<std::string, WeightedMean> bucket_mean, bucket_p90;
  std::map<std::string, WeightedMean> class_mean, class_p90;
  util::OnlineStats rep_means;
  for (const trade::ClusterRunResult& r : out.per_replication) {
    s.total_throughput_rps += r.total_throughput_rps;
    s.db_cpu_utilization += r.db_cpu_utilization;
    s.disk_utilization += r.disk_utilization;
    if (s.app_cpu_utilization.size() < r.app_cpu_utilization.size())
      s.app_cpu_utilization.resize(r.app_cpu_utilization.size(), 0.0);
    for (std::size_t k = 0; k < r.app_cpu_utilization.size(); ++k)
      s.app_cpu_utilization[k] += r.app_cpu_utilization[k];
    WeightedMean rep_rt;
    for (const auto& [name, cr] : r.per_bucket) {
      trade::ClusterClassResult& merged = s.per_bucket[name];
      const auto w = static_cast<double>(cr.completions);
      merged.completions += cr.completions;
      bucket_mean[name].add(cr.mean_rt_s, w);
      bucket_p90[name].add(cr.p90_rt_s, w);
      rep_rt.add(cr.mean_rt_s, w);
    }
    for (const auto& [name, cr] : r.per_class) {
      trade::ClusterClassResult& merged = s.per_class[name];
      const auto w = static_cast<double>(cr.completions);
      merged.completions += cr.completions;
      class_mean[name].add(cr.mean_rt_s, w);
      class_p90[name].add(cr.p90_rt_s, w);
    }
    rep_means.add(rep_rt.get());
  }
  const auto dn = static_cast<double>(n);
  s.total_throughput_rps /= dn;
  s.db_cpu_utilization /= dn;
  s.disk_utilization /= dn;
  for (double& u : s.app_cpu_utilization) u /= dn;
  for (auto& [name, merged] : s.per_bucket) {
    merged.mean_rt_s = bucket_mean[name].get();
    merged.p90_rt_s = bucket_p90[name].get();
  }
  for (auto& [name, merged] : s.per_class) {
    merged.mean_rt_s = class_mean[name].get();
    merged.p90_rt_s = class_p90[name].get();
  }
  out.mean_rt_stddev_s = rep_means.stddev();
  out.mean_rt_ci95_s = rep_means.ci95_halfwidth();
  return out;
}

}  // namespace epp::sim
