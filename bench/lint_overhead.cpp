// Micro-benchmark: cost of the artifact pre-flight gates (google-benchmark).
//
// Every serving tool front-loads a structural lint (`epp_check verify` rules)
// and, since the EPP-SEM family landed, a semantic verification pass —
// interval-arithmetic curve proofs, the LQN convergence pre-check and
// fallback-chain coverage. Both run once per tool invocation, before any
// simulation or solving, so the budget is generous but real:
//
//   budget: lint + verify of one bundle or model must stay well under
//   10 ms on a release build — invisible next to the ~1 s cold
//   calibration and the tens of milliseconds a single sweep pass costs.
//   The adaptive bisection in prove_at_least() is depth- and
//   node-budgeted precisely so a pathological artifact cannot turn the
//   gate into the bottleneck.
//
// BM_VerifyBundle_* cover the two interesting shapes: a clean bundle
// (proof succeeds everywhere — the worst case for bisection, which must
// subdivide until the interval bound tightens) and a defective one
// (refutation exits early at the first witness).
#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>

#include "calib/bundle.hpp"
#include "lint/diagnostic.hpp"
#include "lint/lint.hpp"
#include "lint/verify.hpp"
#include "lqn/parser.hpp"

namespace {

using namespace epp;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string corpus(const std::string& relative) {
  return std::string(EPP_LINT_CORPUS_DIR) + "/" + relative;
}

void BM_LintBundleText(benchmark::State& state) {
  const std::string text = read_file(corpus("clean/trade.epp"));
  for (auto _ : state) {
    lint::Diagnostics diagnostics;
    lint::lint_bundle_text(text, "trade.epp", diagnostics);
    benchmark::DoNotOptimize(diagnostics);
  }
}
BENCHMARK(BM_LintBundleText);

void BM_VerifyBundle_Clean(benchmark::State& state) {
  // Parse once; the steady-state gate cost is the semantic pass itself.
  lint::Diagnostics parse_findings;
  calib::BundleParseInfo info;
  const calib::CalibrationBundle bundle = calib::parse_bundle_text(
      read_file(corpus("clean/trade.epp")), "trade.epp", parse_findings,
      &info);
  for (auto _ : state) {
    lint::Diagnostics diagnostics;
    lint::verify_bundle(bundle, "trade.epp", &info, lint::VerifyOptions{},
                        diagnostics);
    benchmark::DoNotOptimize(diagnostics);
  }
}
BENCHMARK(BM_VerifyBundle_Clean);

void BM_VerifyBundle_Defective(benchmark::State& state) {
  lint::Diagnostics parse_findings;
  calib::BundleParseInfo info;
  const calib::CalibrationBundle bundle = calib::parse_bundle_text(
      read_file(corpus("semantic/negative_upper.epp")), "negative_upper.epp",
      parse_findings, &info);
  for (auto _ : state) {
    lint::Diagnostics diagnostics;
    lint::verify_bundle(bundle, "negative_upper.epp", &info,
                        lint::VerifyOptions{}, diagnostics);
    benchmark::DoNotOptimize(diagnostics);
  }
}
BENCHMARK(BM_VerifyBundle_Defective);

void BM_VerifyArtifactFile_EndToEnd(benchmark::State& state) {
  // What a tool actually pays: read + sniff + lint + verify, per file.
  const std::string path = corpus("clean/trade.epp");
  for (auto _ : state) {
    lint::Diagnostics diagnostics;
    lint::verify_artifact_file(path, lint::VerifyOptions{}, diagnostics);
    benchmark::DoNotOptimize(diagnostics);
  }
}
BENCHMARK(BM_VerifyArtifactFile_EndToEnd);

void BM_VerifyLqnModel(benchmark::State& state) {
  // The convergence pre-check on the paper's testbed model (the priciest
  // model shape in tree: two processors, pools, surrogate recursion).
  const std::string text =
      read_file(std::string(EPP_MODELS_DIR) + "/trade.lqn");
  lqn::DeclarationLines lines;
  const lqn::Model model = lqn::parse_model(text, &lines);
  for (auto _ : state) {
    lint::Diagnostics diagnostics;
    lint::verify_lqn_model(model, "trade.lqn", diagnostics, lines);
    benchmark::DoNotOptimize(diagnostics);
  }
}
BENCHMARK(BM_VerifyLqnModel);

void BM_LintWorkloadGrid(benchmark::State& state) {
  // Grid linting scales with row count; synthesize state.range(0) rows.
  std::ostringstream grid;
  grid << "epp-workloads v1\n";
  for (int i = 0; i < state.range(0); ++i)
    grid << "workload " << (100 + i) << " " << (10 + i) << " 7\n";
  const std::string text = grid.str();
  for (auto _ : state) {
    lint::Diagnostics diagnostics;
    lint::lint_workload_grid_text(text, "grid.wkl", diagnostics);
    benchmark::DoNotOptimize(diagnostics);
  }
}
BENCHMARK(BM_LintWorkloadGrid)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
