// The hybrid method's fit table: each (server, whole-percent buy bucket)
// is fitted once, at the bucket's canonical mix, without a lock. An
// answer is then a pure function of its request: independent of which
// request reached the bucket first, of how many threads raced for it,
// and of whether an earlier caller's deadline cut its fit short. A fit
// that fails is stored and rethrown, not solved again.
#include "core/hybrid_predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "calib/bundle.hpp"
#include "core/errors.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace epp::core {
namespace {

/// The golden corpus artifact's calibration, parsed once.
const calib::CalibrationBundle& corpus_bundle() {
  static const calib::CalibrationBundle bundle = calib::load_bundle(
      std::string(EPP_LINT_CORPUS_DIR) + "/clean/trade.epp");
  return bundle;
}

/// A cold predictor over every catalog server of the corpus bundle.
struct Hybrid {
  HybridPredictor predictor{corpus_bundle().lqn};
  Hybrid() {
    for (const calib::ServerRecord& record : corpus_bundle().servers)
      predictor.register_server(record.arch);
  }
};

WorkloadSpec mix(double browse_clients, double buy_clients) {
  WorkloadSpec w;
  w.browse_clients = browse_clients;
  w.buy_clients = buy_clients;
  return w;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(HybridPredictor, FailedFitIsStoredAndRethrownWithoutSolving) {
  Hybrid cold;
  // AppServS's canonical all-buy fit does not converge.
  EXPECT_THROW((void)cold.predictor.predict_max_throughput_rps("AppServS", 1.0),
               SolverDivergedError);
  const double spent = cold.predictor.startup_delay_s("AppServS");
  // A new solve would poll this expired deadline and throw Cancelled.
  const util::CancellationToken expired = util::CancellationToken::after(0.0);
  const util::CancellationScope scope(&expired);
  EXPECT_THROW((void)cold.predictor.max_clients_for_goal("AppServS", 0.3, 1.0),
               SolverDivergedError);
  EXPECT_THROW((void)cold.predictor.predict_mean_rt_s("AppServS",
                                                      mix(0.0, 500.0)),
               SolverDivergedError);
  EXPECT_EQ(cold.predictor.calibrations(), 0u);
  EXPECT_EQ(cold.predictor.startup_delay_s("AppServS"), spent);
}

TEST(HybridPredictor, CancelledFitIsNotStored) {
  Hybrid cold;
  const WorkloadSpec w = mix(675.0, 225.0);
  {
    const util::CancellationToken expired =
        util::CancellationToken::after(0.0);
    const util::CancellationScope scope(&expired);
    EXPECT_THROW((void)cold.predictor.predict_mean_rt_s("AppServF", w),
                 util::Cancelled);
  }
  EXPECT_EQ(cold.predictor.calibrations(), 0u);
  EXPECT_EQ(cold.predictor.startup_delay_s("AppServF"), 0.0);
  EXPECT_GT(cold.predictor.predict_mean_rt_s("AppServF", w), 0.0);
  EXPECT_EQ(cold.predictor.calibrations(), 1u);
}

TEST(HybridPredictor, BuyFractionOutsideUnitIntervalIsInvalidWorkload) {
  Hybrid cold;
  for (const double buy :
       {std::numeric_limits<double>::quiet_NaN(), -0.01, 1.01,
        std::numeric_limits<double>::infinity()})
    EXPECT_THROW(
        (void)cold.predictor.predict_max_throughput_rps("AppServF", buy),
        InvalidWorkloadError)
        << buy;
  EXPECT_THROW((void)cold.predictor.predict_mean_rt_s("AppServF",
                                                      mix(-10.0, 20.0)),
               InvalidWorkloadError);
  // An unknown server is a calibration gap, whatever the mix.
  EXPECT_THROW((void)cold.predictor.predict_max_throughput_rps("AppServX", 0.5),
               NotCalibratedError);
  EXPECT_THROW((void)cold.predictor.predict_max_throughput_rps("AppServX", 2.0),
               NotCalibratedError);
  EXPECT_EQ(cold.predictor.calibrations(), 0u);
}

TEST(HybridPredictor, ThreadsRacingForOneColdBucketShareOneFit) {
  Hybrid cold;
  const WorkloadSpec w = mix(900.0, 100.0);
  std::vector<double> answers(8);
  util::ThreadPool pool(8);
  pool.parallel_for(answers.size(), [&](std::size_t i) {
    answers[i] = cold.predictor.predict_mean_rt_s("AppServVF", w);
  });
  EXPECT_EQ(cold.predictor.calibrations(), 1u);
  Hybrid serial;
  const double expected = serial.predictor.predict_mean_rt_s("AppServVF", w);
  for (const double answer : answers) EXPECT_TRUE(bit_equal(answer, expected));
}

TEST(HybridPredictor, AnswerIsIndependentOfWhichMixReachedTheBucketFirst) {
  // Three exact mixes that all round to the 25% bucket.
  const std::vector<WorkloadSpec> bucket{mix(226.0, 75.0), mix(300.0, 100.0),
                                         mix(374.0, 126.0)};
  Hybrid forward, reverse;
  std::vector<double> ahead, behind;
  for (const WorkloadSpec& w : bucket)
    ahead.push_back(forward.predictor.predict_mean_rt_s("AppServF", w));
  for (auto w = bucket.rbegin(); w != bucket.rend(); ++w)
    behind.insert(behind.begin(),
                  reverse.predictor.predict_mean_rt_s("AppServF", *w));
  for (std::size_t i = 0; i < bucket.size(); ++i)
    EXPECT_TRUE(bit_equal(ahead[i], behind[i])) << i;
  // The bucket is fitted at its canonical mix, 25% buy.
  Hybrid canonical;
  EXPECT_TRUE(bit_equal(
      forward.predictor.predict_max_throughput_rps("AppServF", 0.248),
      canonical.predictor.predict_max_throughput_rps("AppServF", 0.25)));
  EXPECT_EQ(forward.predictor.calibrations(), 1u);
}

}  // namespace
}  // namespace epp::core
