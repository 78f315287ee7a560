// The EPP-SEM semantic verifier: the interval abstract domain and the
// three analyzer families it powers (HYDRA curve rules, the LQN
// convergence pre-checker, fallback-chain coverage).
//
// Mirrors lint_test.cpp's structure: a golden corpus of semantically
// defective but *structurally clean* artifacts under
// tests/lint_corpus/semantic (bundles) and tests/lint_corpus/lqn (LQN
// models), each written to trip exactly one EPP-SEM rule, pinned by rule
// ID, severity, source line and tool exit code. The clean direction pins
// the gate's no-false-positive guarantee: calibration-pipeline output and
// the paper's testbed model must verify with zero semantic findings.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "calib/bundle.hpp"
#include "lint/diagnostic.hpp"
#include "lint/interval.hpp"
#include "lint/lint.hpp"
#include "lint/verify.hpp"
#include "lqn/parser.hpp"
#include "lqn/solver.hpp"

namespace epp {
namespace {

using lint::Diagnostic;
using lint::Diagnostics;
using lint::Interval;
using lint::Proof;
using lint::Severity;
using lint::Witness;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string corpus_path(const std::string& relative) {
  return std::string(EPP_LINT_CORPUS_DIR) + "/" + relative;
}

// --- the interval domain ---------------------------------------------------

TEST(IntervalDomain, PointAndSpanConstruction) {
  const Interval p = lint::point(3.5);
  EXPECT_EQ(p.lo, 3.5);
  EXPECT_EQ(p.hi, 3.5);
  const Interval s = lint::span(7.0, -2.0);  // either order
  EXPECT_EQ(s.lo, -2.0);
  EXPECT_EQ(s.hi, 7.0);
}

TEST(IntervalDomain, ArithmeticEnclosesAndWidensOutward) {
  const Interval a = lint::span(1.0, 2.0);
  const Interval b = lint::span(-3.0, 4.0);

  const Interval sum = lint::add(a, b);
  EXPECT_LE(sum.lo, -2.0);
  EXPECT_GE(sum.hi, 6.0);
  EXPECT_LT(sum.lo, -2.0);  // strictly widened one ulp outward
  EXPECT_GT(sum.hi, 6.0);

  const Interval diff = lint::sub(a, b);
  EXPECT_LT(diff.lo, -3.0);
  EXPECT_GT(diff.hi, 5.0);

  // mul takes the min/max of all four endpoint products.
  const Interval prod = lint::mul(a, b);
  EXPECT_LT(prod.lo, -6.0);
  EXPECT_GT(prod.hi, 8.0);

  const Interval join = lint::hull(a, b);
  EXPECT_EQ(join.lo, -3.0);  // hull is exact, no widening
  EXPECT_EQ(join.hi, 4.0);
}

TEST(IntervalDomain, FunctionFormsEncloseTrueImage) {
  const Interval x = lint::span(10.0, 20.0);

  const Interval line = lint::linear(-0.5, 3.0, x);
  EXPECT_LE(line.lo, -7.0);
  EXPECT_GE(line.hi, -2.0);

  const Interval exp_img = lint::scale_exp(2.0, 0.1, x);
  EXPECT_LE(exp_img.lo, 2.0 * std::exp(1.0));
  EXPECT_GE(exp_img.hi, 2.0 * std::exp(2.0));

  // Negative coefficient flips the monotone direction; the enclosure
  // must still cover both endpoint images.
  const Interval neg = lint::scale_exp(-1.0, 0.1, x);
  EXPECT_LE(neg.lo, -std::exp(2.0));
  EXPECT_GE(neg.hi, -std::exp(1.0));

  const Interval pow_img = lint::power(3.0, -0.5, x);
  EXPECT_LE(pow_img.lo, 3.0 / std::sqrt(20.0));
  EXPECT_GE(pow_img.hi, 3.0 / std::sqrt(10.0));
}

TEST(IntervalDomain, ProveAtLeastProvesPositivity) {
  // 0.01 * exp(0.004 x) is positive everywhere: provable by intervals.
  const auto ext = [](const Interval& x) {
    return lint::scale_exp(0.01, 0.004, x);
  };
  const auto pt = [](double x) { return 0.01 * std::exp(0.004 * x); };
  EXPECT_EQ(lint::prove_at_least(ext, pt, 0.0, 1000.0, 0.0), Proof::kProven);
}

TEST(IntervalDomain, ProveAtLeastRefutesWithConcreteWitness) {
  // -0.003 x + 2 crosses zero at x = 666.7: refuted, witness beyond it.
  const auto ext = [](const Interval& x) { return lint::linear(-0.003, 2.0, x); };
  const auto pt = [](double x) { return -0.003 * x + 2.0; };
  Witness witness;
  EXPECT_EQ(lint::prove_at_least(ext, pt, 0.0, 1000.0, 0.0, &witness),
            Proof::kRefuted);
  EXPECT_GT(witness.x, 666.0);
  EXPECT_LE(witness.x, 1000.0);
  EXPECT_LT(witness.value, 0.0);
  EXPECT_DOUBLE_EQ(witness.value, pt(witness.x));
}

TEST(IntervalDomain, ProveAtLeastEmptyRangeIsVacuouslyProven) {
  const auto ext = [](const Interval& x) { return lint::linear(1.0, -1e9, x); };
  const auto pt = [](double x) { return x - 1e9; };
  EXPECT_EQ(lint::prove_at_least(ext, pt, 5.0, 4.0, 0.0), Proof::kProven);
}

TEST(IntervalDomain, PreferIntegerWitnessSnapsToWholeClients) {
  const auto pt = [](double x) { return -0.003 * x + 2.0; };
  Witness witness{700.4, pt(700.4)};
  lint::prefer_integer_witness(pt, 0.0, 1000.0, 0.0, &witness);
  EXPECT_EQ(witness.x, std::floor(witness.x)) << "witness not integral";
  EXPECT_LT(witness.value, 0.0);
  EXPECT_DOUBLE_EQ(witness.value, pt(witness.x));
}

// --- golden corpus: one semantically defective artifact per rule -----------

struct GoldenCase {
  const char* file;       // relative to tests/lint_corpus
  const char* rule;       // the EPP-SEM rule the artifact trips
  Severity severity;      // at which severity
  int line;               // on which line (0 = whole artifact)
  int expected_exit;      // `epp_check verify` exit code for the file
};

class VerifyCorpus : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(VerifyCorpus, FlagsExpectedRuleAtExpectedLocation) {
  const GoldenCase& golden = GetParam();
  const std::string path = corpus_path(golden.file);
  Diagnostics diagnostics;
  lint::verify_artifact_file(path, lint::VerifyOptions{}, diagnostics);

  const Diagnostic* match = nullptr;
  for (const Diagnostic& diagnostic : diagnostics.all())
    if (diagnostic.rule == golden.rule) match = &diagnostic;
  ASSERT_NE(match, nullptr)
      << golden.file << " did not trip " << golden.rule << "; got:\n"
      << lint::render_text(diagnostics);
  EXPECT_EQ(match->severity, golden.severity) << golden.file;
  EXPECT_EQ(match->location.line, golden.line) << golden.file;
  EXPECT_EQ(match->location.file, path) << golden.file;
  EXPECT_EQ(lint::exit_code(diagnostics), golden.expected_exit)
      << golden.file << " findings:\n"
      << lint::render_text(diagnostics);
}

INSTANTIATE_TEST_SUITE_P(
    HydraCurves, VerifyCorpus,
    ::testing::Values(
        GoldenCase{"semantic/negative_upper.epp", "EPP-SEM-001",
                   Severity::kError, 14, 2},
        GoldenCase{"semantic/discontinuity.epp", "EPP-SEM-002",
                   Severity::kError, 15, 2},
        GoldenCase{"semantic/nonmonotone.epp", "EPP-SEM-003",
                   Severity::kWarning, 14, 1},
        GoldenCase{"semantic/mix_collapse.epp", "EPP-SEM-004",
                   Severity::kWarning, 17, 1},
        GoldenCase{"semantic/rel2_extrapolation.epp", "EPP-SEM-005",
                   Severity::kWarning, 11, 1}),
    [](const auto& test_info) {
      std::string name = test_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(test_info.param.line);
    });

INSTANTIATE_TEST_SUITE_P(
    LqnConvergence, VerifyCorpus,
    ::testing::Values(
        GoldenCase{"lqn/open_overload.lqn", "EPP-SEM-010", Severity::kError,
                   6, 2},
        GoldenCase{"lqn/diverging.lqn", "EPP-SEM-011", Severity::kError, 10,
                   2},
        GoldenCase{"lqn/slow_converging.lqn", "EPP-SEM-012",
                   Severity::kWarning, 7, 1}),
    [](const auto& test_info) {
      std::string name = test_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(test_info.param.line);
    });

INSTANTIATE_TEST_SUITE_P(
    FallbackChains, VerifyCorpus,
    ::testing::Values(GoldenCase{"semantic/chain_dead_end.epp", "EPP-SEM-020",
                                 Severity::kError, 8, 2}),
    [](const auto& test_info) {
      std::string name = test_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(test_info.param.line);
    });

// --- counterexample witnesses ----------------------------------------------

TEST(VerifyWitness, NegativeUpperCarriesIntegerClientWitness) {
  // The refuted bundle's finding must name a concrete whole-number load
  // the operator can reproduce: N = 1449 clients for this artifact.
  Diagnostics diagnostics;
  lint::verify_artifact_file(corpus_path("semantic/negative_upper.epp"),
                             lint::VerifyOptions{}, diagnostics);
  const Diagnostic* match = nullptr;
  for (const Diagnostic& diagnostic : diagnostics.all())
    if (diagnostic.rule == "EPP-SEM-001") match = &diagnostic;
  ASSERT_NE(match, nullptr) << lint::render_text(diagnostics);
  EXPECT_NE(match->hint.find("witness: N = 1449 clients"), std::string::npos)
      << match->hint;
  EXPECT_NE(match->message.find("N = 1449"), std::string::npos)
      << match->message;
}

// --- acceptance: the pre-checker front-runs the runtime failure ------------

TEST(VerifyAcceptance, DivergingModelIsFlaggedBeforeTheSolverFails) {
  // The whole point of EPP-SEM-011: this model only failed at runtime
  // before (LayeredSolver reports converged=false, surfaced as
  // SolverDivergedError through LqnPredictor). The static pre-checker
  // must flag it without solving anything.
  const std::string text = read_file(corpus_path("lqn/diverging.lqn"));
  const lqn::Model model = lqn::parse_model(text);

  Diagnostics diagnostics;
  const lint::LqnSourceIndex index = lint::index_lqn_source(text);
  lint::verify_lqn_model(model, "diverging.lqn", diagnostics, &index);
  ASSERT_TRUE(diagnostics.has_errors()) << lint::render_text(diagnostics);
  EXPECT_EQ(diagnostics.first_at_least(Severity::kError)->rule,
            "EPP-SEM-011");

  // ...and the runtime failure it predicts is real.
  const lqn::SolveResult result = lqn::LayeredSolver().solve(model);
  EXPECT_FALSE(result.converged)
      << "diverging.lqn converged; the corpus case no longer reproduces "
         "the runtime failure EPP-SEM-011 is supposed to front-run";
}

// --- fallback-chain options ------------------------------------------------

TEST(VerifyChains, SingleLinkChainWarnsWhenBreakersCanOpenWithoutStale) {
  // The clean bundle is fully covered, but with fallback disabled every
  // chain is a single link; add open-able breakers and no stale serving
  // and each (method, server) request is one failure away from a dead
  // end — EPP-SEM-021.
  Diagnostics clean_check;
  calib::BundleParseInfo info;
  const calib::CalibrationBundle bundle = calib::parse_bundle_text(
      read_file(corpus_path("clean/trade.epp")), "trade.epp", clean_check,
      &info);
  ASSERT_FALSE(clean_check.has_errors()) << lint::render_text(clean_check);

  lint::VerifyOptions options;
  options.resilience.fallback_enabled = false;
  options.resilience.serve_stale = false;
  ASSERT_GT(options.resilience.breaker_failure_threshold, 0);
  Diagnostics diagnostics;
  lint::verify_fallback_chains(bundle, "trade.epp", &info, options,
                               diagnostics);
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_FALSE(diagnostics.has_errors()) << lint::render_text(diagnostics);
  for (const Diagnostic& diagnostic : diagnostics.all()) {
    EXPECT_EQ(diagnostic.rule, "EPP-SEM-021");
    EXPECT_EQ(diagnostic.severity, Severity::kWarning);
  }

  // Serving stale entries keeps a degraded answer available, so the
  // same configuration with serve_stale back on is quiet.
  options.resilience.serve_stale = true;
  Diagnostics quiet;
  lint::verify_fallback_chains(bundle, "trade.epp", &info, options, quiet);
  EXPECT_TRUE(quiet.empty()) << lint::render_text(quiet);
}

// --- clean corpus: no false positives --------------------------------------

TEST(VerifyCleanCorpus, CalibratedBundleHasZeroSemanticFindings) {
  Diagnostics diagnostics;
  lint::verify_artifact_file(corpus_path("clean/trade.epp"),
                             lint::VerifyOptions{}, diagnostics);
  EXPECT_TRUE(diagnostics.empty()) << lint::render_text(diagnostics);
}

TEST(VerifyCleanCorpus, FreshlyCalibratedBundleVerifiesClean) {
  // The guarantee the epp_calibrate self-check and the epp_sweep
  // pre-serve gate rely on: what the pipeline produces, the verifier
  // accepts (mix skipped for speed, as in the lint twin of this test).
  calib::CalibrationOptions options;
  options.measure_mix = false;
  const calib::CalibrationBundle bundle = calib::calibrate(options);
  Diagnostics diagnostics;
  lint::verify_bundle(bundle, "fresh.epp", nullptr, lint::VerifyOptions{},
                      diagnostics);
  EXPECT_TRUE(diagnostics.empty()) << lint::render_text(diagnostics);
}

TEST(VerifyCleanCorpus, TradeLqnModelHasNoSemanticFindings) {
  Diagnostics diagnostics;
  lint::verify_artifact_file(std::string(EPP_MODELS_DIR) + "/trade.lqn",
                             lint::VerifyOptions{}, diagnostics);
  for (const Diagnostic& diagnostic : diagnostics.all())
    EXPECT_TRUE(diagnostic.rule.find("EPP-SEM-") == std::string::npos)
        << lint::render_text(diagnostics);
  EXPECT_EQ(lint::exit_code(diagnostics), 0);
}

}  // namespace
}  // namespace epp
