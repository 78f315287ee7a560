// capacity-plan and sim-sweep: in-process workloads, no wire.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <random>
#include <thread>

#include "calib/predictor_set.hpp"
#include "calib/seeds.hpp"
#include "rm/manager.hpp"
#include "rm/types.hpp"
#include "sim/replicate.hpp"
#include "sim/trade/testbed.hpp"
#include "svc/resilient.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace epp;

// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 7;
// Replications per simulated point (the paper averages repeated runs).
constexpr std::size_t kReplications = 4;
// Pinned digest of the reference point's statistics (see sim_digest).
constexpr std::uint64_t kPinnedSimDigest = 3118283392014039615ULL;
// Whole sweeps an untraced run makes at least, so that the p90 tail has
// at least ten points beyond it.
constexpr int kMinSweeps = 5;

std::size_t pool_threads() {
  return std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
}

/// Set-up of the in-process workloads: calibrate + make_predictors,
/// repeated; the last bundle is kept. Fills setup_s and the calib layer.
calib::CalibrationBundle set_up(util::ThreadPool& pool, Sheet& sheet) {
  std::vector<double> setup_s, calibrate_s, make_ms;
  calib::CalibrationBundle bundle;
  for (int i = 0; i < kSetupRepeats; ++i) {
    calib::CalibrationOptions options;
    options.pool = &pool;
    const std::int64_t t0 = now_ns();
    bundle = calib::calibrate(options);
    const std::int64_t t1 = now_ns();
    const calib::PredictorSet set = calib::make_predictors(bundle);
    const std::int64_t t2 = now_ns();
    calibrate_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    make_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  }
  sheet.set("setup_s", median(setup_s), "s", setup_s.size());
  sheet.set("calib.calibrate_s", median(calibrate_s), "s", calibrate_s.size());
  sheet.set("calib.make_predictors_ms", median(make_ms), "ms", make_ms.size());
  return bundle;
}

void set_end_to_end(Sheet& sheet, const std::vector<double>& latency_ms,
                    double tail_q, double ops, double elapsed_s) {
  sheet.set("latency_p50_ms", quantile(latency_ms, 0.5), "ms", latency_ms.size());
  sheet.set("latency_tail_ms", quantile(latency_ms, tail_q), "ms", latency_ms.size());
  sheet.set("throughput_per_s", ops / elapsed_s, "1/s", static_cast<std::size_t>(ops));
  sheet.set("peak_rss_mb", self_peak_rss_mb(), "MB");
}

// ---------------------------------------------------------------- capacity

/// The capacity_planning example's architecture x method x load grid
/// (47 loads from 10% to 240% of each server's knee) at one think time
/// and buy mix.
std::vector<svc::PredictionRequest> make_grid(const calib::CalibrationBundle& bundle,
                                              double think_s, double buy_fraction) {
  std::vector<svc::PredictionRequest> grid;
  const svc::Method methods[] = {svc::Method::kHistorical, svc::Method::kLqn,
                                 svc::Method::kHybrid};
  for (const calib::ServerRecord& server : bundle.servers) {
    const double knee = server.max_throughput_rps / bundle.gradient_m;
    for (const svc::Method method : methods)
      for (int k = 0; k <= 46; ++k) {
        const double clients = (0.10 + 0.05 * k) * knee;
        core::WorkloadSpec w;
        w.browse_clients = clients * (1.0 - buy_fraction);
        w.buy_clients = clients * buy_fraction;
        w.think_time_s = think_s;
        grid.push_back({method, server.name, w});
      }
  }
  return grid;
}

bool same_bits(const std::vector<svc::PredictionResult>& a,
               const std::vector<svc::PredictionResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok() != b[i].ok()) return false;
    if (a[i].ok() &&
        (std::memcmp(&a[i].mean_rt_s, &b[i].mean_rt_s, sizeof(double)) != 0 ||
         std::memcmp(&a[i].throughput_rps, &b[i].throughput_rps, sizeof(double)) != 0))
      return false;
  }
  return true;
}

}  // namespace

int run_capacity_plan(const RunOptions& options, Sheet& sheet) {
  const IdlePollers pollers;
  util::ThreadPool pool(pool_threads());
  sheet.note("thread pool: " + std::to_string(pool.size()) + " threads");
  const calib::CalibrationBundle bundle = set_up(pool, sheet);
  const calib::PredictorSet set = calib::make_predictors(bundle);
  const std::vector<rm::PoolServer> servers = rm::standard_pool(
      bundle.max_throughput("AppServS"), bundle.max_throughput("AppServF"),
      bundle.max_throughput("AppServVF"));
  const std::vector<rm::ServiceClassSpec> classes = rm::standard_classes(9000.0);

  // Every decision asks a new question: a think time on a 10 ms grid over
  // 3-12 s, at each buy mix in turn. The think times are walked from a
  // seeded start with a stride coprime to the grid size, so every run's
  // questions spread evenly over the range and none repeats.
  constexpr std::uint64_t kThinks = 901, kStride = 557;
  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 3);
  const std::uint64_t think_start = rng() % kThinks;
  const auto think_of = [&](std::size_t k) {
    return 3.0 + static_cast<double>((think_start + k * kStride) % kThinks) / 100.0;
  };
  const double mixes[] = {0.0, 0.10, 0.25};

  Tracer tracer;
  std::vector<double> latency_ms, grid_ms, allocate_ms, evaluations, traced_ms;
  std::uint64_t cells = 0, cell_errors = 0, diverged = 0, probes = 0, failed_probes = 0;
  std::string first_error;
  double pool_cpu_s = 0.0, pool_wall_s = 0.0;
  std::vector<std::vector<svc::PredictionRequest>> checked;
  std::vector<std::vector<svc::PredictionResult>> checked_results;
  std::size_t next = 0;
  // One operation is one decision. Every decision answers: grid cells in
  // error and failed capacity probes are part of its answer, counted per
  // prediction in failed_ratio, lqn.diverged and rm.failed_probes. An
  // exception out of a decision fails the run.

  const auto decide = [&](bool traced, std::vector<double>& out_ms) {
    if (next == kThinks) throw StepError("capacity-plan: question space exhausted");
    const double think_s = think_of(next);
    std::vector<svc::PredictionRequest> grid = make_grid(bundle, think_s, mixes[next % 3]);
    ++next;
    const std::uint64_t id = next;
    tracer.enabled = traced;
    const std::int64_t t0 = now_ns();
    std::vector<svc::PredictionResult> first;
    // One grid per SLA goal (300 and 600 ms); the grids are identical, so
    // the second is answered from the cache the first filled.
    for (int goal = 0; goal < 2; ++goal) {
      const double cpu0 = process_cpu_s();
      const std::int64_t g0 = now_ns();
      std::vector<svc::PredictionResult> results = set.batch->predict_batch(grid, &pool);
      const std::int64_t g1 = now_ns();
      tracer.record("svc.grid", "rm.decision", id, g0, g1);
      pool_cpu_s += process_cpu_s() - cpu0;
      pool_wall_s += static_cast<double>(g1 - g0) / 1e9;
      grid_ms.push_back(static_cast<double>(g1 - g0) / 1e6);
      for (std::size_t i = 0; i < results.size(); ++i) {
        ++cells;
        if (results[i].ok()) continue;
        ++cell_errors;
        if (results[i].error.find("converge") != std::string::npos) ++diverged;
        if (first_error.empty())
          first_error = std::string(svc::method_name(grid[i].method)) + " " +
                        grid[i].server + ": " + results[i].error;
      }
      if (first.empty()) first = std::move(results);
    }
    // Algorithm 1 through the resilient path, hybrid planner.
    svc::ResilienceOptions resilience;
    resilience.jitter_seed = calib::kRetryJitterSeed;
    const svc::ResilientPredictor resilient(*set.batch, resilience);
    const rm::ResourceManager manager(*set.hybrid, {1.1, think_s, 1.0});
    const std::int64_t a0 = now_ns();
    const rm::Allocation allocation =
        manager.allocate(classes, servers, resilient, svc::Method::kHybrid);
    const std::int64_t a1 = now_ns();
    tracer.record("rm.allocate", "rm.decision", id, a0, a1);
    tracer.record("rm.decision", "", id, t0, a1);
    tracer.enabled = false;
    allocate_ms.push_back(static_cast<double>(a1 - a0) / 1e6);
    evaluations.push_back(allocation.prediction_evaluations);
    probes += resilient.stats().requests;
    failed_probes += static_cast<std::uint64_t>(allocation.failed_probes);
    out_ms.push_back(static_cast<double>(a1 - t0) / 1e6);
    if (checked.size() < 2) {
      checked.push_back(std::move(grid));
      checked_results.push_back(std::move(first));
    }
  };

  // Warm-up, excluded: one decision per buy mix fits the hybrid method's
  // per-mix relationships, which every later decision reuses.
  std::vector<double> warmup_ms;
  for (int i = 0; i < 3; ++i) decide(false, warmup_ms);

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  grid_ms.clear();
  allocate_ms.clear();
  evaluations.clear();
  cells = cell_errors = diverged = probes = failed_probes = 0;
  pool_cpu_s = pool_wall_s = 0.0;
  const StealSample steal_before = read_steal();
  const std::int64_t start = now_ns();
  while (static_cast<double>(now_ns() - start) / 1e9 < phase_s) decide(false, latency_ms);
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  const double stolen = steal_pct(steal_before, read_steal());

  // Correctness: the first two decisions' grids, recomputed serially on one
  // thread from a fresh predictor set, are bit-equal to the pooled run.
  const calib::PredictorSet serial = calib::make_predictors(bundle);
  for (std::size_t i = 0; i < checked.size(); ++i)
    sheet.check(same_bits(checked_results[i], serial.batch->predict_batch(checked[i])),
                "capacity-plan: pooled grid differs from the serial recomputation");
  sheet.note("checked " + std::to_string(checked.size()) +
             " decision grids bit-equal to a serial single-thread recomputation");
  sheet.attempted = latency_ms.size();
  sheet.failed = 0;
  sheet.note("attempted = decisions, every one answered");
  sheet.note("predictions: " + std::to_string(cells) + " grid cells, " +
             std::to_string(cell_errors) + " in error (" + std::to_string(diverged) +
             " lqn non-convergence); " + std::to_string(probes) +
             " Algorithm-1 capacity probes, " + std::to_string(failed_probes) + " failed");

  if (!first_error.empty()) sheet.note("first failed grid cell: " + first_error);
  if (!options.trace) {
    sheet.note("one operation = one decision; tail = p90");
    set_end_to_end(sheet, latency_ms, 0.90, static_cast<double>(latency_ms.size()), elapsed_s);
    return 0;
  }

  const std::int64_t traced_start = now_ns();
  while (static_cast<double>(now_ns() - traced_start) / 1e9 < phase_s) decide(true, traced_ms);
  sheet.attempted = latency_ms.size() + traced_ms.size();
  // Per prediction: grid cells in error plus failed capacity probes, over
  // grid cells plus probes (the known defects, see README.md).
  const std::uint64_t predictions = cells + probes;
  sheet.set("failed_ratio",
            static_cast<double>(cell_errors + failed_probes) /
                static_cast<double>(std::max<std::uint64_t>(predictions, 1)),
            "ratio", predictions);
  sheet.set("svc.grid_ms", median(grid_ms), "ms", grid_ms.size());
  sheet.set("rm.allocate_ms", median(allocate_ms), "ms", allocate_ms.size());
  sheet.set("rm.evaluations", median(evaluations), "count", evaluations.size());
  sheet.set("rm.failed_probes", static_cast<double>(failed_probes), "count", probes);
  sheet.set("util.pool_parallelism", pool_cpu_s / pool_wall_s, "ratio");
  sheet.set("host.steal_pct", stolen, "%");
  const svc::CacheStats cache = set.batch->cache_stats();
  sheet.set("svc.cache_hit_ratio", cache.hit_ratio(), "ratio", cache.hits + cache.misses);
  const auto self = tracer.self_ns_by_layer();
  const double per_decision = 1e-6 / static_cast<double>(std::max<std::size_t>(traced_ms.size(), 1));
  sheet.set("self.rm_ms", (self.count("rm") ? self.at("rm") : 0.0) * per_decision, "ms", traced_ms.size());
  sheet.set("trace.overhead_p50_ms", median(traced_ms) - median(latency_ms), "ms");
  sheet.set("trace.overhead_tail_ms",
            quantile(traced_ms, 0.9) - quantile(latency_ms, 0.9), "ms");
  // svc/core/lqn attribution on one decision's grid, replayed per entry point.
  replay_layers(make_grid(bundle, 7.0, 0.0), bundle, sheet);
  // Divergence as the workload met it: grid cells the lqn solver refused.
  sheet.set("lqn.diverged", static_cast<double>(diverged), "count", cells);
  std::filesystem::create_directories(options.out_dir);
  tracer.write(options.out_dir + "/capacity-plan-spans.jsonl");
  return 0;
}

// ------------------------------------------------------------------- sim

namespace {

struct Point {
  sim::trade::ServerSpec server;
  std::size_t clients = 0;
  double buy_fraction = 0.0;
};

sim::trade::TestbedConfig point_config(const Point& p, std::uint64_t seed) {
  return p.buy_fraction > 0.0
             ? sim::trade::mixed_workload(p.server, p.clients, p.buy_fraction, seed)
             : sim::trade::typical_workload(p.server, p.clients, seed);
}

std::uint64_t fnv(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Digest of every statistic a replicated point reports.
std::uint64_t sim_digest(const sim::ReplicatedResult& r) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto add = [&](const sim::trade::RunResult& x) {
    h = fnv(h, x.mean_rt_s);
    h = fnv(h, x.p90_rt_s);
    h = fnv(h, x.throughput_rps);
    h = fnv(h, x.app_cpu_utilization);
    for (const auto& [name, c] : x.per_class) h = fnv(h, static_cast<double>(c.completions));
  };
  add(r.summary);
  for (const auto& x : r.per_replication) add(x);
  return fnv(h, r.mean_rt_ci95_s);
}

std::size_t completions(const sim::trade::RunResult& r) {
  std::size_t n = 0;
  for (const auto& [name, c] : r.per_class) n += c.completions;
  return n;
}

}  // namespace

int run_sim_sweep(const RunOptions& options, Sheet& sheet) {
  const IdlePollers pollers;
  util::ThreadPool pool(pool_threads());
  sheet.note("thread pool: " + std::to_string(pool.size()) + " threads; " +
             std::to_string(kReplications) + " replications per point");
  const calib::CalibrationBundle bundle = set_up(pool, sheet);

  // The validation sweep: each server, without and with the 25% buy mix,
  // at fixed fractions of its max-throughput load around the knee.
  const std::pair<const char*, sim::trade::ServerSpec> specs[] = {
      {"AppServS", sim::trade::app_serv_s()},
      {"AppServF", sim::trade::app_serv_f()},
      {"AppServVF", sim::trade::app_serv_vf()}};
  std::vector<Point> points;
  for (const auto& [name, spec] : specs) {
    const double knee = bundle.max_throughput(name) / bundle.gradient_m;
    for (const double buy : {0.0, 0.25})
      for (const double f : {0.5, 0.8, 1.1, 1.4})
        points.push_back({spec, static_cast<std::size_t>(std::lround(f * knee)), buy});
  }

  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 4);
  Tracer tracer;
  std::vector<double> latency_ms, traced_ms;
  std::uint64_t attempted = 0;
  double worst_little = 0.0, pool_cpu_s = 0.0, pool_wall_s = 0.0;
  std::uint64_t op = 0;

  // Whole sweeps (every point once, in a seeded order) until the time is up.
  const auto sweep = [&](bool traced, std::vector<double>& out_ms) {
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    tracer.enabled = traced;
    for (const std::size_t i : order) {
      const Point& p = points[i];
      sim::ReplicationOptions ro;
      ro.replications = kReplications;
      ro.pool = &pool;
      const auto config = point_config(p, rng());
      const double cpu0 = process_cpu_s();
      const std::int64_t t0 = now_ns();
      const sim::ReplicatedResult r = sim::run_replications(config, ro);
      const std::int64_t t1 = now_ns();
      pool_cpu_s += process_cpu_s() - cpu0;
      pool_wall_s += static_cast<double>(t1 - t0) / 1e9;
      tracer.record("sim.point", "", ++op, t0, t1);
      out_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      ++attempted;
      // Little's law on the closed system: N = X (R + Z).
      const double n = r.summary.throughput_rps * (r.summary.mean_rt_s + 7.0);
      worst_little = std::max(worst_little, std::abs(n - static_cast<double>(p.clients)) /
                                                static_cast<double>(p.clients));
    }
    tracer.enabled = false;
  };

  // Warm-up, excluded: one sweep's first point.
  {
    sim::ReplicationOptions ro;
    ro.replications = kReplications;
    ro.pool = &pool;
    (void)sim::run_replications(point_config(points.front(), rng()), ro);
  }
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  attempted = 0;
  const StealSample steal_before = read_steal();
  const std::int64_t start = now_ns();
  for (int n = 0; n < (options.trace ? 1 : kMinSweeps) ||
                  static_cast<double>(now_ns() - start) / 1e9 < phase_s;
       ++n)
    sweep(false, latency_ms);
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  const double stolen = steal_pct(steal_before, read_steal());

  constexpr double kLittleTolerance = 0.05;
  sheet.check(worst_little <= kLittleTolerance,
              "sim-sweep: N = X(R+Z) off by " + std::to_string(worst_little));
  sheet.note("Little's law N = X(R+Z): worst relative error " +
             std::to_string(worst_little) + " (tolerance 0.05)");
  // Pinned digest of the reference point (first point, default seed 1),
  // computed on the pool and on the calling thread: thread-count invariant.
  sim::ReplicationOptions ro;
  ro.replications = kReplications;
  ro.pool = &pool;
  const auto reference = point_config(points.front(), 1);
  const std::uint64_t pooled = sim_digest(sim::run_replications(reference, ro));
  ro.pool = nullptr;
  const std::uint64_t serial = sim_digest(sim::run_replications(reference, ro));
  sheet.check(pooled == serial, "sim-sweep: digest differs between pool and one thread");
  sheet.check(pooled == kPinnedSimDigest,
              "sim-sweep: reference digest " + std::to_string(pooled) +
                  " differs from the pinned " + std::to_string(kPinnedSimDigest));
  sheet.attempted = attempted;
  sheet.failed = 0;

  if (!options.trace) {
    sheet.note("one operation = one simulated point; tail = p90");
    set_end_to_end(sheet, latency_ms, 0.90, static_cast<double>(latency_ms.size()), elapsed_s);
    return 0;
  }

  const std::int64_t traced_start = now_ns();
  do sweep(true, traced_ms);
  while (static_cast<double>(now_ns() - traced_start) / 1e9 < phase_s);
  sheet.attempted = attempted;
  std::vector<double> point_ms = tracer.durations("sim.point", 1e-6);
  sheet.set("sim.point_ms", median(point_ms), "ms", point_ms.size());
  sheet.set("util.pool_parallelism", pool_cpu_s / pool_wall_s, "ratio");
  sheet.set("host.steal_pct", stolen, "%");
  sheet.set("trace.overhead_p50_ms", median(traced_ms) - median(latency_ms), "ms");
  sheet.set("trace.overhead_tail_ms",
            quantile(traced_ms, 0.9) - quantile(latency_ms, 0.9), "ms");

  // Replications one by one: run_testbed at replication_seed(base, i),
  // each timed, and bit-equal to what run_replications merged.
  std::vector<double> rep_ms;
  double completed = 0.0, host_s = 0.0;
  bool same = true;
  for (std::size_t i = 0; i < points.size(); i += 4) {
    const auto config = point_config(points[i], 1000 + i);
    sim::ReplicationOptions serial_ro;
    serial_ro.replications = kReplications;
    const sim::ReplicatedResult merged = sim::run_replications(config, serial_ro);
    for (std::size_t k = 0; k < kReplications; ++k) {
      auto rep = config;
      rep.seed = sim::replication_seed(config.seed, k);
      const std::int64_t t0 = now_ns();
      const sim::trade::RunResult r = sim::trade::run_testbed(rep);
      const std::int64_t t1 = now_ns();
      rep_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      host_s += static_cast<double>(t1 - t0) / 1e9;
      completed += static_cast<double>(completions(r));
      same = same && std::memcmp(&r.mean_rt_s, &merged.per_replication[k].mean_rt_s,
                                 sizeof(double)) == 0;
    }
  }
  sheet.check(same, "sim-sweep: run_testbed replication differs from run_replications");
  sheet.set("sim.replication_ms", median(rep_ms), "ms", rep_ms.size());
  sheet.set("sim.completions_per_host_s", completed / host_s, "1/s", rep_ms.size());
  const auto self = tracer.self_ns_by_layer();
  sheet.set("self.sim_ms", (self.count("sim") ? self.at("sim") : 0.0) / 1e6 /
                               static_cast<double>(std::max<std::size_t>(point_ms.size(), 1)),
            "ms", point_ms.size());
  std::filesystem::create_directories(options.out_dir);
  tracer.write(options.out_dir + "/sim-sweep-spans.jsonl");
  return 0;
}

}  // namespace perfbench
