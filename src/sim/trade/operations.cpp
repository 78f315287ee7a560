#include "sim/trade/operations.hpp"

#include <cmath>

namespace epp::sim::trade {
namespace {

// Per-operation demands (seconds at speed 1.0 == AppServF).
//
// The browse mix below weights these to an aggregate browse request of
// 5.376 ms app CPU (=> 186 req/s saturation on AppServF) with 1.14 DB calls
// of 0.8294 ms DB CPU each; buy requests cost 10.455 ms app CPU with 2 DB
// calls of 1.613 ms each, preserving the paper's browse:buy demand ratio.
constexpr std::array<OperationProfile, kNumOperations> kProfiles{{
    {"quote", 0.004210, 0.0008294, 0.00040, 1.00},
    {"home", 0.004800, 0.0008294, 0.00040, 1.00},
    {"browse_market", 0.007500, 0.0008294, 0.00040, 1.00},
    {"portfolio", 0.006800, 0.0008294, 0.00040, 2.00},
    {"account", 0.005200, 0.0008294, 0.00040, 1.25},
    {"register_login", 0.009000, 0.0012000, 0.00045, 3.00},
    {"buy", 0.010455, 0.0016130, 0.00050, 2.00},
    {"logoff", 0.003000, 0.0008000, 0.00030, 1.00},
}};

// Browse mix: representative of the Trade "browse" scenario (quote-heavy).
constexpr std::array<double, kNumOperations> kBrowseMix{
    0.40,  // quote
    0.20,  // home
    0.20,  // browse_market
    0.12,  // portfolio
    0.08,  // account
    0.0, 0.0, 0.0,
};

}  // namespace

const OperationProfile& profile(Operation op) noexcept {
  return kProfiles[static_cast<std::size_t>(op)];
}

std::size_t sample_db_calls(const OperationProfile& op,
                            util::Rng& rng) noexcept {
  const double whole = std::floor(op.mean_db_calls);
  const double frac = op.mean_db_calls - whole;
  auto calls = static_cast<std::size_t>(whole);
  if (frac > 0.0 && rng.bernoulli(frac)) ++calls;
  return calls;
}

Operation sample_browse_operation(util::Rng& rng) noexcept {
  double u = rng.uniform();
  for (std::size_t i = 0; i < kNumOperations; ++i) {
    u -= kBrowseMix[i];
    if (u < 0.0) return static_cast<Operation>(i);
  }
  return Operation::kQuote;
}

namespace {

AggregateDemand weighted_aggregate(const std::array<double, kNumOperations>& w) {
  AggregateDemand agg{0.0, 0.0, 0.0, 0.0};
  double total_calls = 0.0;
  for (std::size_t i = 0; i < kNumOperations; ++i) {
    if (w[i] == 0.0) continue;
    const OperationProfile& p = kProfiles[i];
    agg.app_cpu_s += w[i] * p.app_cpu_s;
    agg.mean_db_calls += w[i] * p.mean_db_calls;
    agg.db_cpu_per_call += w[i] * p.mean_db_calls * p.db_cpu_per_call;
    agg.disk_per_call += w[i] * p.mean_db_calls * p.disk_per_call;
    total_calls += w[i] * p.mean_db_calls;
  }
  if (total_calls > 0.0) {
    agg.db_cpu_per_call /= total_calls;  // call-weighted per-call demand
    agg.disk_per_call /= total_calls;
  }
  return agg;
}

}  // namespace

AggregateDemand browse_aggregate() noexcept {
  return weighted_aggregate(kBrowseMix);
}

AggregateDemand buy_aggregate() noexcept {
  std::array<double, kNumOperations> w{};
  w[static_cast<std::size_t>(Operation::kBuy)] = 1.0;
  return weighted_aggregate(w);
}

}  // namespace epp::sim::trade
