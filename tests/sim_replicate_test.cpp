// Parallel independent replications: determinism guarantees.
//
// The SimReplicate.* tests also run under ThreadSanitizer (see the
// epp_tsan_concurrency gtest filter in tests/CMakeLists.txt) — the
// 8-thread cases double as the data-race gate for run_replications.
#include "sim/replicate.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

namespace epp::sim {
namespace {

trade::TestbedConfig small_config(std::uint64_t seed = 42) {
  trade::TestbedConfig config =
      trade::typical_workload(trade::app_serv_f(), 120, seed);
  config.warmup_s = 2.0;
  config.measure_s = 10.0;
  return config;
}

void expect_bitwise_equal(const trade::RunResult& a,
                          const trade::RunResult& b) {
  EXPECT_EQ(a.mean_rt_s, b.mean_rt_s);
  EXPECT_EQ(a.p90_rt_s, b.p90_rt_s);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.app_cpu_utilization, b.app_cpu_utilization);
  EXPECT_EQ(a.db_cpu_utilization, b.db_cpu_utilization);
  EXPECT_EQ(a.disk_utilization, b.disk_utilization);
  EXPECT_EQ(a.buy_request_fraction, b.buy_request_fraction);
  EXPECT_EQ(a.db_calls_per_request, b.db_calls_per_request);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (const auto& [name, cr] : a.per_class) {
    const auto it = b.per_class.find(name);
    ASSERT_NE(it, b.per_class.end()) << name;
    EXPECT_EQ(cr.completions, it->second.completions) << name;
    EXPECT_EQ(cr.mean_rt_s, it->second.mean_rt_s) << name;
    EXPECT_EQ(cr.p90_rt_s, it->second.p90_rt_s) << name;
    EXPECT_EQ(cr.throughput_rps, it->second.throughput_rps) << name;
  }
}

TEST(SimReplicate, OneReplicationMatchesPlainRunBitwise) {
  const trade::TestbedConfig config = small_config();
  const trade::RunResult plain = trade::run_testbed(config);
  const ReplicatedResult replicated = run_replications(config, {});
  ASSERT_EQ(replicated.per_replication.size(), 1u);
  expect_bitwise_equal(plain, replicated.summary);
  EXPECT_EQ(replicated.mean_rt_stddev_s, 0.0);
}

// A batch returns each entry's own result in input order, whatever order
// the lanes claim the entries in and however many lanes there are.
TEST(SimReplicate, BatchReturnsEachEntryInInputOrderOnEveryPool) {
  trade::TestbedConfig large = small_config(7);
  large.classes[0].clients = 360;  // costliest entry, claimed first
  const std::vector<TestbedRun> runs{
      {small_config(1)}, {large}, {small_config(2), 2}};
  ReplicationOptions two;
  two.replications = 2;
  const trade::RunResult expected[] = {
      trade::run_testbed(runs[0].config), trade::run_testbed(runs[1].config),
      run_replications(runs[2].config, two).summary};
  util::ThreadPool pool(8);
  for (util::ThreadPool* on :
       {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    const std::vector<trade::RunResult> results = run_testbeds(runs, on);
    ASSERT_EQ(results.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
      expect_bitwise_equal(expected[i], results[i]);
  }
}

TEST(SimReplicate, ReplicationSeedsAreDistinctAndStable) {
  EXPECT_EQ(replication_seed(42, 0), 42u);  // rep 0 is the base seed
  EXPECT_NE(replication_seed(42, 1), replication_seed(42, 2));
  EXPECT_EQ(replication_seed(42, 3), replication_seed(42, 3));
  EXPECT_NE(replication_seed(42, 1), replication_seed(43, 1));
}

TEST(SimReplicate, MergedResultIsThreadCountInvariant) {
  const trade::TestbedConfig config = small_config();
  ReplicationOptions serial;
  serial.replications = 4;
  const ReplicatedResult on_one_thread = run_replications(config, serial);

  util::ThreadPool pool(8);
  ReplicationOptions parallel = serial;
  parallel.pool = &pool;
  const ReplicatedResult on_eight_threads = run_replications(config, parallel);

  expect_bitwise_equal(on_one_thread.summary, on_eight_threads.summary);
  EXPECT_EQ(on_one_thread.mean_rt_stddev_s, on_eight_threads.mean_rt_stddev_s);
  EXPECT_EQ(on_one_thread.mean_rt_ci95_s, on_eight_threads.mean_rt_ci95_s);
  ASSERT_EQ(on_one_thread.per_replication.size(),
            on_eight_threads.per_replication.size());
  for (std::size_t i = 0; i < on_one_thread.per_replication.size(); ++i)
    expect_bitwise_equal(on_one_thread.per_replication[i],
                         on_eight_threads.per_replication[i]);
  // Distinct seeds produce distinct samples: spread is real, not zero.
  EXPECT_GT(on_one_thread.mean_rt_stddev_s, 0.0);
}

TEST(SimReplicate, ClusterMergeIsThreadCountInvariant) {
  trade::ClusterConfig cluster;
  cluster.servers = {trade::app_serv_f(), trade::app_serv_s()};
  trade::ClusterClassSpec browse;
  browse.name = "browse";
  browse.clients_per_server = {80, 40};
  trade::ClusterClassSpec buy;
  buy.name = "buy";
  buy.type = trade::UserType::kBuy;
  buy.clients_per_server = {20, 10};
  cluster.classes = {browse, buy};
  cluster.warmup_s = 2.0;
  cluster.measure_s = 8.0;
  cluster.seed = 7;

  ReplicationOptions serial;
  serial.replications = 3;
  const ClusterReplicatedResult a = run_cluster_replications(cluster, serial);

  util::ThreadPool pool(8);
  ReplicationOptions parallel = serial;
  parallel.pool = &pool;
  const ClusterReplicatedResult b = run_cluster_replications(cluster, parallel);

  EXPECT_EQ(a.summary.total_throughput_rps, b.summary.total_throughput_rps);
  EXPECT_EQ(a.summary.db_cpu_utilization, b.summary.db_cpu_utilization);
  EXPECT_EQ(a.summary.disk_utilization, b.summary.disk_utilization);
  EXPECT_EQ(a.summary.app_cpu_utilization, b.summary.app_cpu_utilization);
  ASSERT_EQ(a.summary.per_bucket.size(), b.summary.per_bucket.size());
  for (const auto& [name, cr] : a.summary.per_bucket) {
    const auto it = b.summary.per_bucket.find(name);
    ASSERT_NE(it, b.summary.per_bucket.end()) << name;
    EXPECT_EQ(cr.completions, it->second.completions) << name;
    EXPECT_EQ(cr.mean_rt_s, it->second.mean_rt_s) << name;
    EXPECT_EQ(cr.p90_rt_s, it->second.p90_rt_s) << name;
  }
  EXPECT_EQ(a.mean_rt_stddev_s, b.mean_rt_stddev_s);
}

TEST(SimReplicate, KeepSamplesConcatenatesInReplicationOrder) {
  const trade::TestbedConfig config = small_config();
  ReplicationOptions options;
  options.replications = 2;
  options.keep_samples = true;
  const ReplicatedResult replicated = run_replications(config, options);
  std::size_t expected = 0;
  for (const trade::RunResult& rep : replicated.per_replication)
    expected += rep.rt_samples_s.size();
  EXPECT_EQ(replicated.summary.rt_samples_s.size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST(SimReplicate, ZeroReplicationsRejected) {
  ReplicationOptions options;
  options.replications = 0;
  EXPECT_THROW(run_replications(small_config(), options),
               std::invalid_argument);
}

}  // namespace
}  // namespace epp::sim
