// The simulator's steady state allocates nothing: a longer measured
// window may cost a few more allocations (sample vectors doubling), but
// not one per request. This program replaces the global operator new
// with a counting one, so it is its own executable rather than part of
// epp_tests. For each workload it runs run_testbed with a 20 s and a
// 40 s measured window and fails if the second run allocates more than
// kMaxExtraAllocations beyond the first.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/trade/testbed.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace epp::sim::trade;

/// 20 extra simulated seconds at 1,500 clients are ~3,700 requests; a
/// per-request allocation anywhere on the path shows up thousands of
/// times over this bound.
constexpr std::uint64_t kMaxExtraAllocations = 64;
constexpr std::size_t kClients = 1500;

std::uint64_t allocations_of_run(TestbedConfig config, double measure_s) {
  config.measure_s = measure_s;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult result = run_testbed(config);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  if (!(result.throughput_rps > 0.0)) {
    std::fprintf(stderr, "run at measure_s %.0f completed no requests\n",
                 measure_s);
    std::exit(1);
  }
  return after - before;
}

bool check(const char* name, const TestbedConfig& config) {
  const std::uint64_t short_run = allocations_of_run(config, 20.0);
  const std::uint64_t long_run = allocations_of_run(config, 40.0);
  const std::uint64_t extra = long_run > short_run ? long_run - short_run : 0;
  const bool ok = extra <= kMaxExtraAllocations;
  std::printf("%s %-10s measure 20 s: %llu allocations, 40 s: %llu "
              "(+%llu, limit +%llu)\n",
              ok ? "ok  " : "FAIL", name,
              static_cast<unsigned long long>(short_run),
              static_cast<unsigned long long>(long_run),
              static_cast<unsigned long long>(extra),
              static_cast<unsigned long long>(kMaxExtraAllocations));
  return ok;
}

}  // namespace

int main() {
  bool ok = check("browse", typical_workload(app_serv_f(), kClients));
  ok = check("buy-25%", mixed_workload(app_serv_f(), kClients, 0.25)) && ok;
  return ok ? 0 : 1;
}
