// Golden outputs of the TRADE simulator. Every field of a fixed set of
// run_testbed and run_cluster results is pinned to its exact bit pattern,
// printed as a C hex-float, so any change to the request path, the order
// in which random numbers are drawn, or the order in which events fire
// shows up here as a changed line. Refactors of src/sim/trade must keep
// these strings unchanged.
#include "sim/trade/cluster.hpp"
#include "sim/trade/testbed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace epp::sim::trade {
namespace {

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string line(const std::string& key, double x) {
  return key + " " + hex(x) + "\n";
}

std::string count_line(const std::string& key, std::size_t n) {
  return key + " " + std::to_string(n) + "\n";
}

// FNV-1a over the samples' bit patterns, in order.
std::uint64_t digest(const std::vector<double>& samples) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double s : samples) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string render(const RunResult& r) {
  std::string out;
  out += line("mean_rt_s", r.mean_rt_s);
  out += line("p90_rt_s", r.p90_rt_s);
  out += line("throughput_rps", r.throughput_rps);
  out += line("app_cpu_utilization", r.app_cpu_utilization);
  out += line("db_cpu_utilization", r.db_cpu_utilization);
  out += line("disk_utilization", r.disk_utilization);
  out += line("cache_miss_ratio", r.cache_miss_ratio);
  out += line("buy_request_fraction", r.buy_request_fraction);
  out += line("db_calls_per_request", r.db_calls_per_request);
  for (const auto& [name, c] : r.per_class) {
    out += count_line(name + " completions", c.completions);
    out += line(name + " mean_rt_s", c.mean_rt_s);
    out += line(name + " p90_rt_s", c.p90_rt_s);
    out += line(name + " throughput_rps", c.throughput_rps);
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, " %016llx\n",
                static_cast<unsigned long long>(digest(r.rt_samples_s)));
  out += "samples " + std::to_string(r.rt_samples_s.size()) + buf;
  out += count_line("solved_by_fluid", r.solved_by_fluid ? 1 : 0);
  return out;
}

// Per-class mean response times are left out: they are checked with a
// relative tolerance (see ClusterTwoServersMixedClasses).
std::string render(const ClusterRunResult& r) {
  std::string out;
  out += line("total_throughput_rps", r.total_throughput_rps);
  out += line("db_cpu_utilization", r.db_cpu_utilization);
  out += line("disk_utilization", r.disk_utilization);
  for (const double u : r.app_cpu_utilization)
    out += line("app_cpu_utilization", u);
  for (const auto& [name, b] : r.per_bucket) {
    out += count_line(name + " completions", b.completions);
    out += line(name + " mean_rt_s", b.mean_rt_s);
    out += line(name + " p90_rt_s", b.p90_rt_s);
  }
  for (const auto& [name, c] : r.per_class) {
    out += count_line(name + " completions", c.completions);
    out += line(name + " p90_rt_s", c.p90_rt_s);
  }
  return out;
}

TestbedConfig shortened(TestbedConfig config) {
  config.warmup_s = 20.0;
  config.measure_s = 60.0;
  return config;
}

// AppServF saturates near 186 req/s, i.e. ~1300 clients at 7 s think.
TestbedConfig browse_knee_case() {
  return shortened(typical_workload(app_serv_f(), 1300, 11));
}

TestbedConfig buy_mix_case() {
  return shortened(mixed_workload(app_serv_s(), 420, 0.25, 12));
}

TestbedConfig open_arrival_case() {
  TestbedConfig config = shortened(typical_workload(app_serv_f(), 500, 13));
  ServiceClassSpec open;
  open.name = "open";
  open.open_arrival_rps = 40.0;
  config.classes.push_back(open);
  ServiceClassSpec open_buy;
  open_buy.name = "open_buy";
  open_buy.type = UserType::kBuy;
  open_buy.open_arrival_rps = 8.0;
  config.classes.push_back(open_buy);
  return config;
}

TestbedConfig cache_case() {
  TestbedConfig config = shortened(mixed_workload(app_serv_f(), 700, 0.3, 14));
  CacheConfig cc;
  cc.capacity_bytes = 300ull * 8 * 1024;  // far fewer sessions than clients
  config.cache = cc;
  return config;
}

TestbedConfig samples_case() {
  return shortened(mixed_workload(app_serv_vf(), 900, 0.1, 15));
}

ClusterConfig cluster_case() {
  ClusterConfig config;
  config.servers = {app_serv_s(), app_serv_vf()};
  ClusterClassSpec browse;
  browse.name = "browse";
  browse.clients_per_server = {300, 1100};
  ClusterClassSpec buy;
  buy.name = "buy";
  buy.type = UserType::kBuy;
  buy.clients_per_server = {80, 200};
  ClusterClassSpec quick;  // only on server 1: server 0 gets no bucket
  quick.name = "quick";
  quick.mean_think_time_s = 3.5;
  quick.clients_per_server = {0, 150};
  config.classes = {browse, buy, quick};
  config.warmup_s = 20.0;
  config.measure_s = 60.0;
  config.seed = 16;
  return config;
}

TEST(SimGolden, ClosedBrowseNearKneeOnAppServF) {
  EXPECT_EQ(render(run_testbed(browse_knee_case())), R"(mean_rt_s 0x1.63585e05f134cp-3
p90_rt_s 0x1.4dacd833ae25ap-2
throughput_rps 0x1.7055555555555p+7
app_cpu_utilization 0x1.f9385806eed0ep-1
db_cpu_utilization 0x1.64bac60f196cap-3
disk_utilization 0x1.5815a07b32b4bp-4
cache_miss_ratio 0x0p+0
buy_request_fraction 0x0p+0
db_calls_per_request 0x1.250bfbff59324p+0
browse completions 11050
browse mean_rt_s 0x1.63585e05f134cp-3
browse p90_rt_s 0x1.4dacd833ae25ap-2
browse throughput_rps 0x1.7055555555555p+7
samples 0 14650fb0739d0383
solved_by_fluid 0
)");
}

TEST(SimGolden, BuyMixOnAppServS) {
  EXPECT_EQ(render(run_testbed(buy_mix_case())), R"(mean_rt_s 0x1.21547fe9b916ep-4
p90_rt_s 0x1.3a677e0db1cb4p-3
throughput_rps 0x1.d111111111111p+5
app_cpu_utilization 0x1.a5e5f62d1755p-1
db_cpu_utilization 0x1.67538664df163p-4
disk_utilization 0x1.1da122fad6d04p-5
cache_miss_ratio 0x0p+0
buy_request_fraction 0x1.adcc548ceadccp-3
db_calls_per_request 0x1.59c2ef8f441c3p+0
browse completions 2612
browse mean_rt_s 0x1.d775432522175p-5
browse p90_rt_s 0x1.fce85caa61c67p-4
browse throughput_rps 0x1.5c44444444444p+5
buy completions 876
buy mean_rt_s 0x1.c1277a3beb87dp-4
buy p90_rt_s 0x1.ca8c915ac54p-3
buy throughput_rps 0x1.d333333333333p+3
samples 0 14650fb0739d0383
solved_by_fluid 0
)");
}

TEST(SimGolden, OpenArrivalClasses) {
  EXPECT_EQ(render(run_testbed(open_arrival_case())), R"(mean_rt_s 0x1.3dedef657434fp-6
p90_rt_s 0x1.334061b5148p-5
throughput_rps 0x1.e0bbbbbbbbbbcp+6
app_cpu_utilization 0x1.5c9ba1bec2fd4p-1
db_cpu_utilization 0x1.0b25be2a9e29p-3
disk_utilization 0x1.e2c3c9eec99c6p-5
cache_miss_ratio 0x0p+0
buy_request_fraction 0x1.c568154e83e37p-5
db_calls_per_request 0x1.3189bf70d1a87p+0
browse completions 4241
browse mean_rt_s 0x1.2fa20ba504edap-6
browse p90_rt_s 0x1.246e107ecfp-5
browse throughput_rps 0x1.1abbbbbbbbbbcp+6
open completions 2497
open mean_rt_s 0x1.2516fe54d08bdp-6
open p90_rt_s 0x1.147ab262ff4cdp-5
open throughput_rps 0x1.4ceeeeeeeeeefp+5
open_buy completions 473
open_buy mean_rt_s 0x1.209f37edc9bc9p-5
open_buy p90_rt_s 0x1.0cdf1895450cep-4
open_buy throughput_rps 0x1.f888888888889p+2
samples 0 14650fb0739d0383
solved_by_fluid 0
)");
}

TEST(SimGolden, SessionCache) {
  EXPECT_EQ(render(run_testbed(cache_case())), R"(mean_rt_s 0x1.7b396699e45a9p-6
p90_rt_s 0x1.6ef38e7d50463p-5
throughput_rps 0x1.8f9999999999ap+6
app_cpu_utilization 0x1.5572e48e8a54ep-1
db_cpu_utilization 0x1.a74c46d57d4ddp-3
disk_utilization 0x1.5f3f52fc273f2p-4
cache_miss_ratio 0x1.1787505664337p-1
buy_request_fraction 0x1.00cfc5e7d28cbp-2
db_calls_per_request 0x1.ef415043a9b67p+0
browse completions 4208
browse mean_rt_s 0x1.30063c176020ep-6
browse p90_rt_s 0x1.1472a8594f4cep-5
browse throughput_rps 0x1.1888888888889p+6
buy completions 1786
buy mean_rt_s 0x1.163390cf7b084p-5
buy p90_rt_s 0x1.ecfdfc354a2p-5
buy throughput_rps 0x1.dc44444444444p+4
samples 0 14650fb0739d0383
solved_by_fluid 0
)");
}

TEST(SimGolden, KeepSamples) {
  const RunResult r = run_testbed(samples_case(), /*keep_samples=*/true);
  ASSERT_FALSE(r.rt_samples_s.empty());
  EXPECT_EQ(render(r), R"(mean_rt_s 0x1.eec42d4125387p-8
p90_rt_s 0x1.a42238dbcab33p-7
throughput_rps 0x1.fbddddddddddep+6
app_cpu_utilization 0x1.b4b58a2c3e953p-2
db_cpu_utilization 0x1.2d2614bca634bp-3
disk_utilization 0x1.092b7fe089efep-4
cache_miss_ratio 0x0p+0
buy_request_fraction 0x1.5232682ca07eep-4
db_calls_per_request 0x1.3a5f08ab849a9p+0
browse completions 6831
browse mean_rt_s 0x1.beca9f40960dfp-8
browse p90_rt_s 0x1.660cf5122p-7
browse throughput_rps 0x1.c766666666666p+6
buy completions 787
buy mean_rt_s 0x1.c796c98e2e73fp-7
buy p90_rt_s 0x1.523590153dcccp-6
buy throughput_rps 0x1.a3bbbbbbbbbbcp+3
samples 7618 f03a50b32e82b4f0
solved_by_fluid 0
)");
}

// Per-class means may be summed in a different order than the samples
// were recorded in (for instance bucket by bucket), which moves only the
// last bits; every other field is pinned exactly.
TEST(SimGolden, ClusterTwoServersMixedClasses) {
  const ClusterRunResult r = run_cluster(cluster_case());
  EXPECT_EQ(render(r), R"(total_throughput_rps 0x1.1d5999999999ap+8
db_cpu_utilization 0x1.6e500aaf5beaep-2
disk_utilization 0x1.380dc3372106ap-3
app_cpu_utilization 0x1.8023d2bf8718ap-1
app_cpu_utilization 0x1.95fbd2fa7e27fp-1
browse@0 completions 2580
browse@0 mean_rt_s 0x1.7a5d38cf7dabfp-5
browse@0 p90_rt_s 0x1.787cfb964f399p-4
browse@1 completions 9500
browse@1 mean_rt_s 0x1.19ffb975c563bp-6
browse@1 p90_rt_s 0x1.21a3640cbc4cdp-5
buy@0 completions 708
buy@0 mean_rt_s 0x1.604bb1c526902p-4
buy@0 p90_rt_s 0x1.4e9873895e984p-3
buy@1 completions 1721
buy@1 mean_rt_s 0x1.1323d61dd870dp-5
buy@1 p90_rt_s 0x1.0c9e319bd9cp-4
quick@1 completions 2612
quick@1 mean_rt_s 0x1.172724d324678p-6
quick@1 p90_rt_s 0x1.1c5cb60ea3dcdp-5
browse completions 12080
browse p90_rt_s 0x1.91faedb34e8cep-5
buy completions 2429
buy p90_rt_s 0x1.844e0ef526b34p-4
quick completions 2612
quick p90_rt_s 0x1.1c5cb60ea3dcdp-5
)");
  const std::vector<std::pair<std::string, double>> means = {
      {"browse", 0x1.7f63c9e7af6ccp-6},
      {"buy", 0x1.9050cb612fad2p-5},
      {"quick", 0x1.172724d324678p-6}};
  ASSERT_EQ(r.per_class.size(), means.size());
  for (const auto& [name, want] : means)
    EXPECT_NEAR(r.per_class.at(name).mean_rt_s, want, 1e-12 * want) << name;
}

}  // namespace
}  // namespace epp::sim::trade
