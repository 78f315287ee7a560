// Micro-benchmark: discrete-event engine throughput (events/second), the
// cost of one "measured data point" on the simulation substrate, and the
// scaling knobs added by the million-client refactor — old engine vs new
// (slab + calendar queue), cancel churn, replication fan-out across
// threads, and the fluid fast path.
//
// Results print as the usual google-benchmark console table and are also
// written to --json-out (default BENCH_sim.json) so CI can record the
// simulation-substrate perf trajectory next to BENCH_serve.json. The
// derived field engine_speedup_100k = new/old events-per-second at the
// 100k-event schedule-run case is the refactor's headline number.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fluid.hpp"
#include "sim/legacy_engine.hpp"
#include "sim/replicate.hpp"
#include "sim/resources.hpp"
#include "sim/trade/testbed.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace epp::sim;

// Provenance constants, emitted into BENCH_sim.json so a benchmark
// trajectory is attributable to the exact experiment it measured (and
// replay-diffable: `epp_check replay` strips the "timing" object and compares
// the rest byte-for-byte).
constexpr std::uint64_t kWorkloadSeed = 42;
constexpr int kReplications = 8;
constexpr int kReplicationThreads[] = {1, 2, 4, 8};

void noop(void*, std::uint64_t) {}

// --- engine core: pre-refactor baseline vs slab/calendar engine ----------

void BM_LegacyEngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    LegacyEngine engine;
    const long n = state.range(0);
    for (long i = 0; i < n; ++i)
      engine.schedule_at(static_cast<double>(i % 97), [] {});
    engine.run_all();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LegacyEngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_EngineScheduleRun(benchmark::State& state) {
  // The zero-allocation path: raw typed dispatch, no std::function.
  for (auto _ : state) {
    Engine engine;
    const long n = state.range(0);
    for (long i = 0; i < n; ++i)
      engine.schedule_raw_at(static_cast<double>(i % 97), &noop, nullptr, 0);
    engine.run_all();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_EngineCancelChurn(benchmark::State& state) {
  // Timer-wheel style load: every event reschedules and cancels, so the
  // slab's eager reclaim and generation checks sit on the hot path.
  for (auto _ : state) {
    Engine engine;
    const long n = state.range(0);
    std::vector<Engine::Handle> handles(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i)
      handles[static_cast<std::size_t>(i)] =
          engine.schedule_raw_at(static_cast<double>(i % 97), &noop, nullptr, 0);
    for (long i = 0; i < n; i += 2)
      engine.cancel(handles[static_cast<std::size_t>(i)]);
    engine.run_all();
    benchmark::DoNotOptimize(engine.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineCancelChurn)->Arg(100000);

// --- resources and the SoA testbed ---------------------------------------

void BM_PsResourceChurn(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    PsResource cpu(engine, 1.0);
    const long n = state.range(0);
    for (long i = 0; i < n; ++i)
      engine.schedule_raw_at(
          0.001 * static_cast<double>(i),
          [](void* ctx, std::uint64_t) {
            static_cast<PsResource*>(ctx)->add_job(0.01, [] {});
          },
          &cpu);
    engine.run_all();
    benchmark::DoNotOptimize(cpu.active_jobs());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PsResourceChurn)->Arg(1000)->Arg(20000);

void BM_TestbedMeasurement(benchmark::State& state) {
  // Cost of one measured data point at the given client count (short
  // window to keep the benchmark itself quick).
  for (auto _ : state) {
    trade::TestbedConfig config = trade::typical_workload(
        trade::app_serv_f(), static_cast<std::size_t>(state.range(0)), kWorkloadSeed);
    config.warmup_s = 5.0;
    config.measure_s = 20.0;
    benchmark::DoNotOptimize(trade::run_testbed(config));
  }
}
BENCHMARK(BM_TestbedMeasurement)->Arg(200)->Arg(800)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// --- parallel replications ------------------------------------------------

void BM_ReplicationScaling(benchmark::State& state) {
  // 8 independent replications of one data point on N pool threads; the
  // merged result is identical at every N, only wall-clock changes.
  epp::util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  trade::TestbedConfig config =
      trade::typical_workload(trade::app_serv_f(), 2000, kWorkloadSeed);
  config.warmup_s = 5.0;
  config.measure_s = 20.0;
  ReplicationOptions options;
  options.replications = kReplications;
  options.pool = &pool;
  for (auto _ : state)
    benchmark::DoNotOptimize(run_replications(config, options));
  state.SetItemsProcessed(state.iterations() * kReplications);
}
BENCHMARK(BM_ReplicationScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- fluid fast path ------------------------------------------------------

void BM_FluidTestbed(benchmark::State& state) {
  // The same data point answered by the ODE fluid model: cost is flat in
  // the population, so 10^6 clients is as cheap as the crossover point.
  for (auto _ : state) {
    trade::TestbedConfig config = trade::typical_workload(
        trade::app_serv_f(), static_cast<std::size_t>(state.range(0)), kWorkloadSeed);
    config.warmup_s = 5.0;
    config.measure_s = 20.0;
    config.fluid_threshold = 1;  // always engage
    benchmark::DoNotOptimize(trade::run_testbed(config));
  }
}
BENCHMARK(BM_FluidTestbed)->Arg(2600)->Arg(1000000)
    ->Unit(benchmark::kMicrosecond);

// --- JSON capture ---------------------------------------------------------

struct CapturedRun {
  std::string name;
  double real_ns_per_iter = 0.0;
  double items_per_second = 0.0;
};

class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      CapturedRun captured;
      captured.name = run.benchmark_name();
      if (run.iterations > 0)
        captured.real_ns_per_iter = run.real_accumulated_time /
                                    static_cast<double>(run.iterations) * 1e9;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) captured.items_per_second = it->second;
      captured_.push_back(captured);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<CapturedRun>& captured() const { return captured_; }

 private:
  std::vector<CapturedRun> captured_;
};

double items_per_second_of(const std::vector<CapturedRun>& runs,
                           const std::string& name) {
  for (const CapturedRun& run : runs)
    if (run.name == name) return run.items_per_second;
  return 0.0;
}

bool write_json(const std::string& path, const std::vector<CapturedRun>& runs) {
  // Layout contract with lint/canon.hpp (the `epp_check replay` canonicalizer):
  // every wall-clock measurement lives under the top-level "timing"
  // object, which the canonicalizer strips before byte-comparing runs;
  // "provenance" and the benchmark name list are deterministic and must
  // reproduce exactly.
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"provenance\": {\n"
      << "    \"workload_seed\": " << kWorkloadSeed << ",\n"
      << "    \"replications\": " << kReplications << ",\n"
      << "    \"replication_threads\": [";
  for (std::size_t i = 0; i < std::size(kReplicationThreads); ++i)
    out << (i > 0 ? ", " : "") << kReplicationThreads[i];
  out << "],\n"
      << "    \"benchmark_names\": [";
  for (std::size_t i = 0; i < runs.size(); ++i)
    out << (i > 0 ? ", " : "") << "\"" << runs[i].name << "\"";
  out << "]\n  },\n";
  out << "  \"timing\": {\n    \"benchmarks\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    out << "      {\"name\": \"" << runs[i].name
        << "\", \"real_ns_per_iter\": " << runs[i].real_ns_per_iter
        << ", \"items_per_second\": " << runs[i].items_per_second << "}";
    out << (i + 1 < runs.size() ? ",\n" : "\n");
  }
  out << "    ],\n";
  const double old_rate =
      items_per_second_of(runs, "BM_LegacyEngineScheduleRun/100000");
  const double new_rate = items_per_second_of(runs, "BM_EngineScheduleRun/100000");
  out << "    \"engine_events_per_second_old\": " << old_rate << ",\n"
      << "    \"engine_events_per_second_new\": " << new_rate << ",\n"
      << "    \"engine_speedup_100k\": "
      << (old_rate > 0.0 ? new_rate / old_rate : 0.0) << "\n  }\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark sees the command line.
  std::string json_out = "BENCH_sim.json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      json_out.clear();
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_out.empty()) {
    if (!write_json(json_out, reporter.captured())) {
      std::cerr << "sim_engine_micro: cannot write " << json_out << "\n";
      return 1;
    }
    std::cerr << "wrote " << json_out << "\n";
  }
  return 0;
}
