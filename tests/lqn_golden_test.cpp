// Golden digest of the layered solver as the LQN predictor runs it. Every
// result field a prediction can reach (per-class response time and
// throughput, processor and task utilisations, layer iterations) is
// folded, bit pattern by bit pattern, into one FNV-1a digest over a grid
// of 3 servers x {0, 25%} buy x client counts through each server's knee.
// Cells whose solve does not converge contribute the iteration count and
// clamped response time the predictor throws. Any change to the order of
// floating-point operations inside the solver moves the digest; speedups
// of the solver must keep it.
#include "core/lqn_predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "calib/bundle.hpp"
#include "core/errors.hpp"

namespace epp::core {
namespace {

class Fnv1a {
 public:
  void add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    add_bits(bits);
  }
  void add(int n) { add_bits(static_cast<std::uint64_t>(n)); }
  std::uint64_t value() const { return h_; }

 private:
  void add_bits(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xFFu;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

TEST(LqnGolden, SolveDigestOverKneeGrid) {
  // The calibration is the checked-in golden bundle, itself pinned byte
  // for byte by CalibGolden.*.
  const calib::CalibrationBundle bundle =
      calib::load_bundle(std::string(EPP_GOLDEN_DIR) + "/calibrate_default.epp");
  LqnPredictor predictor(bundle.lqn);
  for (const calib::ServerRecord& record : bundle.servers)
    predictor.register_server(record.arch);

  Fnv1a digest;
  int cells = 0, diverged = 0;
  for (const calib::ServerRecord& record : bundle.servers) {
    const double knee = record.max_throughput_rps / bundle.gradient_m;
    for (const double buy_fraction : {0.0, 0.25}) {
      // Light load, 1% steps from 0.85 to 1.15 of the knee, overload.
      std::vector<double> scales{0.5, 1.5};
      for (int i = 0; i <= 30; ++i) scales.push_back(0.85 + 0.01 * i);
      for (const double scale : scales) {
        const double clients = std::floor(scale * knee);
        WorkloadSpec w;
        w.buy_clients = clients * buy_fraction;
        w.browse_clients = clients - w.buy_clients;
        ++cells;
        try {
          const lqn::SolveResult r = predictor.solve(record.name, w);
          for (const lqn::ClassPrediction& c : r.classes) {
            digest.add(c.response_time_s);
            digest.add(c.throughput_rps);
          }
          for (const auto& [name, u] : r.processor_utilization) digest.add(u);
          for (const auto& [name, u] : r.task_utilization) digest.add(u);
          digest.add(r.iterations);
        } catch (const SolverDivergedError& error) {
          ++diverged;
          digest.add(-error.iterations);
          digest.add(error.clamped_rt_s);
        }
      }
    }
  }
  EXPECT_EQ(cells, 198);
  // Four cells take the thrown path; the grid must keep at least one.
  EXPECT_EQ(diverged, 4);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest.value()));
  EXPECT_EQ(std::string(hex), "5ff330123f12cf9c");
}

}  // namespace
}  // namespace epp::core
