// Operation catalogue for the Trade-like benchmark workload.
//
// The paper aggregates the Trade operation mix into two request types
// ("browse" and "buy") when calibrating the LQN model; the simulator keeps
// a finer per-operation breakdown whose browse-mix-weighted demand equals
// the aggregate, so measured behaviour matches the paper's regime while the
// workload retains realistic per-request variability.
//
// Demands are expressed in seconds of work at reference speed 1.0, which is
// defined to be the established "fast" server AppServF. They are chosen so
// the simulated max throughputs under the typical (all-browse) workload hit
// the paper's measured 86 / 186 / 320 requests/second for AppServS/F/VF.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "util/rng.hpp"

namespace epp::sim::trade {

enum class Operation : std::size_t {
  kQuote = 0,
  kHome,
  kBrowseMarket,
  kPortfolio,
  kAccount,
  kRegisterLogin,
  kBuy,
  kLogoff,
  kCount,
};

constexpr std::size_t kNumOperations = static_cast<std::size_t>(Operation::kCount);

struct OperationProfile {
  std::string_view name;
  double app_cpu_s;       // CPU demand at the application tier (speed 1.0)
  double db_cpu_per_call; // CPU demand at the DB tier, per DB call
  double disk_per_call;   // DB disk demand, per DB call
  double mean_db_calls;   // fractional part realised as a Bernoulli extra call
};

/// Profile lookup; demands are fixed program constants (the simulator's
/// "ground truth" that the prediction methods must rediscover).
const OperationProfile& profile(Operation op) noexcept;

/// Sample the number of DB calls for an operation: floor(mean) calls plus
/// one more with probability frac(mean).
std::size_t sample_db_calls(const OperationProfile& op, util::Rng& rng) noexcept;

/// Pick a browse operation according to the mix.
Operation sample_browse_operation(util::Rng& rng) noexcept;

/// Browse-mix-weighted aggregate demands: the single "browse request type"
/// the paper's models see.
struct AggregateDemand {
  double app_cpu_s;
  double db_cpu_per_call;
  double disk_per_call;
  double mean_db_calls;
};
AggregateDemand browse_aggregate() noexcept;
AggregateDemand buy_aggregate() noexcept;

}  // namespace epp::sim::trade
