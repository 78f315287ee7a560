// Parallel independent replications.
//
// The paper's simulations (section 6) report averages over repeated runs;
// this module runs N statistically independent replications of a testbed
// or cluster configuration — seeds derived per replication index — and
// merges them deterministically. Replication 0 always uses the base seed,
// so a 1-replication run is bitwise identical to a plain run_testbed /
// run_cluster call; and results are merged in fixed index order, so the
// merged output is bitwise identical whether the replications executed
// on 1 thread or N.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/trade/cluster.hpp"
#include "sim/trade/testbed.hpp"

namespace epp::util {
class ThreadPool;
}

namespace epp::sim {

struct ReplicationOptions {
  std::size_t replications = 1;
  /// Where to fan out. Null runs the replications on the calling thread;
  /// either way the merged result is identical.
  util::ThreadPool* pool = nullptr;
  /// Concatenate per-replication response-time samples (in replication
  /// order) into the summary's rt_samples_s.
  bool keep_samples = false;
};

/// Seed for replication `index` of a run whose base seed is `base`:
/// index 0 is `base` itself, later indices come from a splitmix-seeded
/// stream so sibling replications are statistically independent.
std::uint64_t replication_seed(std::uint64_t base, std::size_t index);

struct ReplicatedResult {
  /// Deterministic merge: completions summed; mean and p90 response times
  /// completion-weighted; throughput, utilizations and ratios averaged
  /// over replications.
  trade::RunResult summary;
  std::vector<trade::RunResult> per_replication;
  /// Across-replication spread of the per-replication mean response time.
  double mean_rt_stddev_s = 0.0;
  double mean_rt_ci95_s = 0.0;  // half-width, ~95% confidence
};

struct ClusterReplicatedResult {
  trade::ClusterRunResult summary;
  std::vector<trade::ClusterRunResult> per_replication;
  double mean_rt_stddev_s = 0.0;  // spread of per-rep completion-weighted
  double mean_rt_ci95_s = 0.0;    // mean RT over all buckets
};

/// Run `options.replications` independent testbed simulations and merge.
ReplicatedResult run_replications(const trade::TestbedConfig& config,
                                  const ReplicationOptions& options = {});

/// One entry of a run_testbeds batch: a configuration averaged over
/// `replications` runs exactly as run_replications merges them (1 = the
/// plain run_testbed result, bit for bit).
struct TestbedRun {
  trade::TestbedConfig config;
  std::size_t replications = 1;
};

/// Run a batch of independent entries as one fan-out on `pool` (the
/// calling thread when null); an entry's replications run inside its
/// lane. Lanes claim entries longest first by a static cost key (closed
/// clients x simulated seconds x replications), so the long runs start
/// at once and the short ones fill in behind them. Each entry writes only
/// its own slot: results come back in input order, identical for every
/// pool size.
std::vector<trade::RunResult> run_testbeds(const std::vector<TestbedRun>& runs,
                                           util::ThreadPool* pool = nullptr);

/// Cluster counterpart used by the resource-manager validation harness.
ClusterReplicatedResult run_cluster_replications(
    const trade::ClusterConfig& config, const ReplicationOptions& options = {});

}  // namespace epp::sim
