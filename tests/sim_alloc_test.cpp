// The simulator's steady state allocates nothing: a longer measured
// window may cost a few more allocations (sample blocks), but not one per
// request. This program replaces the global operator new with a counting
// one, so it is its own executable rather than part of epp_tests. For
// each workload it runs run_testbed with a 20 s and a 40 s measured
// window and fails if the second run allocates more than
// kMaxExtraAllocations beyond the first.
//
// It also counts bytes (frees sized with malloc_usable_size) and bounds
// how much each extra measured completion of the 40 s run adds to the
// peak live heap of the call: a response time should be held once, in a
// sample block, with no scratch copy for the p90 and no doubling slack.
// Last, it bounds the peak live heap of one saturation run on AppServVF,
// the largest run calibration makes.
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/trade/testbed.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_live_bytes{0};

void note_allocated(void* p) {
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    note_allocated(p);
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace {

using namespace epp::sim::trade;

/// 20 extra simulated seconds at 1,500 clients are ~3,700 requests; a
/// per-request allocation anywhere on the path shows up thousands of
/// times over this bound.
constexpr std::uint64_t kMaxExtraAllocations = 64;
/// Peak live heap of a run_testbed call per extra measured completion
/// (the 40 s run against the 20 s one, which cancels the simulator's
/// fixed state). One stored response time costs 8 bytes, and a partly
/// filled 4 KiB sample block about 1 more over ~3,700 extra completions:
/// block storage reads 7.9-8.0. A scratch copy for the p90 adds 8 (16
/// and up), and a doubling vector's growth slack reads 13 or more here.
constexpr double kMaxPeakBytesPerCompletion = 12.0;
/// Peak live heap of run_testbed(max_throughput_config(app_serv_vf())):
/// ~4,000 clients' state and pending events plus ~38,400 response times.
/// Pooled calendar entries and block-stored samples peak at about
/// 1.04 MB; per-bucket calendar vectors, doubling sample vectors and a
/// scratch copy for the p90 peaked at about 2.2 MB.
constexpr std::uint64_t kMaxSaturationPeakBytes = 1'300'000;
constexpr std::size_t kClients = 1500;

struct RunCost {
  std::uint64_t allocations = 0;
  std::uint64_t peak_bytes = 0;
  std::size_t completions = 0;
};

RunCost cost_of_run(const TestbedConfig& config) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t live_before =
      g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(live_before, std::memory_order_relaxed);
  const RunResult result = run_testbed(config);
  RunCost cost;
  cost.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  cost.peak_bytes =
      g_peak_live_bytes.load(std::memory_order_relaxed) - live_before;
  for (const auto& [_, cls] : result.per_class)
    cost.completions += cls.completions;
  if (cost.completions == 0) {
    std::fprintf(stderr, "run at measure_s %.0f completed no requests\n",
                 config.measure_s);
    std::exit(1);
  }
  return cost;
}

RunCost cost_of_run(TestbedConfig config, double measure_s) {
  config.measure_s = measure_s;
  return cost_of_run(config);
}

bool check(const char* name, const TestbedConfig& config) {
  const RunCost short_run = cost_of_run(config, 20.0);
  const RunCost long_run = cost_of_run(config, 40.0);
  const std::uint64_t extra =
      long_run.allocations > short_run.allocations
          ? long_run.allocations - short_run.allocations
          : 0;
  const bool allocations_ok = extra <= kMaxExtraAllocations;
  std::printf("%s %-10s measure 20 s: %llu allocations, 40 s: %llu "
              "(+%llu, limit +%llu)\n",
              allocations_ok ? "ok  " : "FAIL", name,
              static_cast<unsigned long long>(short_run.allocations),
              static_cast<unsigned long long>(long_run.allocations),
              static_cast<unsigned long long>(extra),
              static_cast<unsigned long long>(kMaxExtraAllocations));
  const double per_completion =
      (static_cast<double>(long_run.peak_bytes) -
       static_cast<double>(short_run.peak_bytes)) /
      static_cast<double>(long_run.completions - short_run.completions);
  const bool bytes_ok = per_completion <= kMaxPeakBytesPerCompletion;
  std::printf("%s %-10s peak live heap 20 s: %llu bytes for %zu completions, "
              "40 s: %llu for %zu (%.1f bytes per extra completion, "
              "limit %.1f)\n",
              bytes_ok ? "ok  " : "FAIL", name,
              static_cast<unsigned long long>(short_run.peak_bytes),
              short_run.completions,
              static_cast<unsigned long long>(long_run.peak_bytes),
              long_run.completions, per_completion,
              kMaxPeakBytesPerCompletion);
  return allocations_ok && bytes_ok;
}

bool check_saturation_peak() {
  const RunCost run = cost_of_run(max_throughput_config(app_serv_vf()));
  const bool ok = run.peak_bytes <= kMaxSaturationPeakBytes;
  std::printf("%s AppServVF saturation peak live heap: %llu bytes for %zu "
              "completions (limit %llu)\n",
              ok ? "ok  " : "FAIL",
              static_cast<unsigned long long>(run.peak_bytes), run.completions,
              static_cast<unsigned long long>(kMaxSaturationPeakBytes));
  return ok;
}

}  // namespace

int main() {
  bool ok = check("browse", typical_workload(app_serv_f(), kClients));
  ok = check("buy-25%", mixed_workload(app_serv_f(), kClients, 0.25)) && ok;
  ok = check_saturation_peak() && ok;
  return ok ? 0 : 1;
}
