// The lint subsystem: the diagnostic engine, the EPP-* rule library and
// the artifact dispatcher.
//
// The heart of this suite is the golden corpus under tests/lint_corpus:
// every defective artifact there was written to trip exactly one rule,
// and the table below pins the rule ID, severity and source line the
// linter must report for it. The clean corpus pins the other direction —
// calibration-pipeline output must produce zero findings, so the rules
// can gate epp_sweep/epp_calibrate runs without false positives.

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "calib/bundle.hpp"
#include "core/errors.hpp"
#include "core/trade_model.hpp"
#include "lint/diagnostic.hpp"
#include "lint/lint.hpp"
#include "lqn/parser.hpp"
#include "svc/fault.hpp"

namespace epp {
namespace {

using lint::Diagnostic;
using lint::Diagnostics;
using lint::Severity;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- the diagnostic engine -------------------------------------------------

TEST(DiagnosticEngine, SeverityOrderingAndExitCodes) {
  Diagnostics clean;
  EXPECT_EQ(lint::exit_code(clean), 0);

  Diagnostics notes;
  notes.note("EPP-LQN-007", {"m.lqn", 3}, "saturated");
  EXPECT_EQ(lint::exit_code(notes), 0);

  Diagnostics warnings;
  warnings.note("EPP-LQN-007", {"m.lqn", 3}, "saturated");
  warnings.warning("EPP-LQN-004", {"m.lqn", 5}, "unreachable");
  EXPECT_EQ(lint::exit_code(warnings), 1);
  EXPECT_FALSE(warnings.has_errors());

  Diagnostics errors;
  errors.warning("EPP-LQN-004", {"m.lqn", 5}, "unreachable");
  errors.error("EPP-LQN-003", {"m.lqn", 9}, "cycle");
  EXPECT_EQ(lint::exit_code(errors), 2);
  EXPECT_TRUE(errors.has_errors());
  EXPECT_EQ(errors.count(Severity::kError), 1u);
  EXPECT_EQ(errors.count(Severity::kWarning), 1u);
}

TEST(DiagnosticEngine, FirstAtLeastScansInEmissionOrder) {
  Diagnostics diagnostics;
  diagnostics.note("A", {"f", 1}, "first note");
  diagnostics.warning("B", {"f", 2}, "first warning");
  diagnostics.error("C", {"f", 3}, "first error");
  diagnostics.error("D", {"f", 4}, "second error");
  EXPECT_EQ(diagnostics.first_at_least(Severity::kNote)->rule, "A");
  EXPECT_EQ(diagnostics.first_at_least(Severity::kWarning)->rule, "B");
  EXPECT_EQ(diagnostics.first_at_least(Severity::kError)->rule, "C");
  Diagnostics only_notes;
  only_notes.note("A", {"f", 1}, "note");
  EXPECT_EQ(only_notes.first_at_least(Severity::kWarning), nullptr);
}

TEST(DiagnosticEngine, SortByLocationBreaksTiesByRuleId) {
  // Same (file, line) findings order by rule ID, so output is identical
  // no matter which rule pass emitted first — structural lint and the
  // EPP-SEM verifier can interleave freely without churning goldens.
  Diagnostics diagnostics;
  diagnostics.error("LATE", {"b.lqn", 9}, "late file");
  diagnostics.error("SECOND", {"a.lqn", 4}, "same line, added second");
  diagnostics.error("FIRST", {"a.lqn", 4}, "same line, added first");
  diagnostics.sort_by_location();
  ASSERT_EQ(diagnostics.size(), 3u);
  EXPECT_EQ(diagnostics.all()[0].rule, "FIRST");  // rule ID, not emission
  EXPECT_EQ(diagnostics.all()[1].rule, "SECOND");
  EXPECT_EQ(diagnostics.all()[2].rule, "LATE");
}

TEST(DiagnosticEngine, TextRenderingIsCompilerStyle) {
  Diagnostics diagnostics;
  diagnostics.error("EPP-BND-001", {"trade.epp", 1}, "bad header", "fix me");
  diagnostics.warning("EPP-BND-015", {"trade.epp", 0}, "no seeds");
  const std::string text = lint::render_text(diagnostics);
  EXPECT_NE(text.find("trade.epp:1: error: [EPP-BND-001] bad header"),
            std::string::npos);
  EXPECT_NE(text.find("    fix-it: fix me"), std::string::npos);
  // line 0 findings carry the file but no line component
  EXPECT_NE(text.find("trade.epp: warning: [EPP-BND-015] no seeds"),
            std::string::npos);
}

// Minimal JSON string scanner for the round-trip test below: finds the
// first `"key": "` after `from` and decodes the escaped value with the
// same escape set render_json emits (\" \\ \n \t \u00XX).
std::string json_string_field(const std::string& json, const std::string& key,
                              std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t start = json.find(needle, from);
  EXPECT_NE(start, std::string::npos) << "no field " << key;
  if (start == std::string::npos) return {};
  std::string value;
  for (std::size_t i = start + needle.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') return value;
    if (c != '\\') {
      value.push_back(c);
      continue;
    }
    EXPECT_LT(++i, json.size()) << "dangling escape";
    switch (json[i]) {
      case '"': value.push_back('"'); break;
      case '\\': value.push_back('\\'); break;
      case 'n': value.push_back('\n'); break;
      case 't': value.push_back('\t'); break;
      case 'u': {
        EXPECT_LT(i + 4, json.size());
        value.push_back(static_cast<char>(
            std::stoi(json.substr(i + 1, 4), nullptr, 16)));
        i += 4;
        break;
      }
      default:
        ADD_FAILURE() << "unknown escape \\" << json[i];
    }
  }
  ADD_FAILURE() << "unterminated string for " << key;
  return value;
}

TEST(DiagnosticEngine, JsonRenderingEscapesAndRoundTrips) {
  // Every string field goes through the escaper — including the rule ID,
  // which used to be interpolated raw (a hostile rule string could break
  // the report's framing). Round-trip through a real unescape to prove
  // the original bytes survive, not just that backslashes appear.
  const std::string message = "clause 'a\"b\\c' wants target:knob";
  const std::string hint = "tab\there\nand a newline";
  const std::string rule = "EPP-\"QUOTED\"-001";
  Diagnostics diagnostics;
  diagnostics.error(rule, {"<spec>\x01odd", 0}, message, hint);
  const std::string json = lint::render_json(diagnostics);
  EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\"line\": 0"), std::string::npos);
  EXPECT_EQ(json_string_field(json, "rule"), rule);
  EXPECT_EQ(json_string_field(json, "message"), message);
  EXPECT_EQ(json_string_field(json, "hint"), hint);
  EXPECT_EQ(json_string_field(json, "file"), "<spec>\x01odd");
}

TEST(DiagnosticEngine, FmtValueUsesDefaultPrecision) {
  EXPECT_EQ(lint::fmt_value(500.0), "500");
  EXPECT_EQ(lint::fmt_value(1.14), "1.14");
  EXPECT_EQ(lint::fmt_value(-0.5), "-0.5");
}

// --- golden corpus: one defective artifact per rule ------------------------

struct GoldenCase {
  const char* file;       // relative to tests/lint_corpus
  const char* rule;       // the rule the artifact was written to trip
  Severity severity;      // at which severity
  int line;               // on which line (0 = whole artifact)
  int expected_exit;      // tool exit code for the file
};

class LintCorpus : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(LintCorpus, FlagsExpectedRuleAtExpectedLocation) {
  const GoldenCase& golden = GetParam();
  const std::string path =
      std::string(EPP_LINT_CORPUS_DIR) + "/" + golden.file;
  Diagnostics diagnostics;
  lint::lint_artifact_file(path, diagnostics);

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
    Bundles, LintCorpus,
    ::testing::Values(
        GoldenCase{"bundles/bad_header.epp", "EPP-BND-001", Severity::kError,
                   1, 2},
        GoldenCase{"bundles/malformed_gradient.epp", "EPP-BND-002",
                   Severity::kError, 3, 2},
        GoldenCase{"bundles/duplicate_gradient.epp", "EPP-BND-003",
                   Severity::kError, 4, 2},
        GoldenCase{"bundles/duplicate_server.epp", "EPP-BND-003",
                   Severity::kError, 7, 2},
        GoldenCase{"bundles/missing_gradient.epp", "EPP-BND-004",
                   Severity::kError, 0, 2},
        GoldenCase{"bundles/truncated_model.epp", "EPP-BND-005",
                   Severity::kError, 18, 2},
        GoldenCase{"bundles/gradient_mismatch.epp", "EPP-BND-006",
                   Severity::kError, 3, 2},
        GoldenCase{"bundles/nonmonotonic.epp", "EPP-BND-011",
                   Severity::kWarning, 7, 1},
        GoldenCase{"bundles/implausible_gradient.epp", "EPP-BND-012",
                   Severity::kWarning, 3, 1},
        GoldenCase{"bundles/single_established.epp", "EPP-BND-013",
                   Severity::kError, 0, 2},
        GoldenCase{"bundles/catalog_mismatch.epp", "EPP-BND-014",
                   Severity::kWarning, 6, 1},
        GoldenCase{"bundles/no_seeds.epp", "EPP-BND-015", Severity::kWarning,
                   0, 1}),
    [](const auto& test_info) {
      std::string name = test_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(test_info.param.line);
    });

INSTANTIATE_TEST_SUITE_P(
    LqnModels, LintCorpus,
    ::testing::Values(
        GoldenCase{"lqn/parse_error.lqn", "EPP-LQN-001", Severity::kError, 2,
                   2},
        GoldenCase{"lqn/no_ref.lqn", "EPP-LQN-002", Severity::kError, 0, 2},
        GoldenCase{"lqn/cycle.lqn", "EPP-LQN-003", Severity::kError, 7, 2},
        GoldenCase{"lqn/unreachable.lqn", "EPP-LQN-004", Severity::kWarning,
                   5, 1},
        GoldenCase{"lqn/negative_demand.lqn", "EPP-LQN-005", Severity::kError,
                   6, 2},
        GoldenCase{"lqn/zero_leaf.lqn", "EPP-LQN-006", Severity::kNote, 6, 0},
        GoldenCase{"lqn/zero_leaf.lqn", "EPP-LQN-007", Severity::kNote, 4, 0},
        GoldenCase{"lqn/ref_multiplicity.lqn", "EPP-LQN-008",
                   Severity::kWarning, 3, 1},
        GoldenCase{"lqn/branch_sum.lqn", "EPP-LQN-009", Severity::kWarning, 7,
                   1},
        GoldenCase{"lqn/bad_population.lqn", "EPP-LQN-010", Severity::kError,
                   3, 2},
        GoldenCase{"lqn/no_entries.lqn", "EPP-LQN-011", Severity::kError, 5,
                   2},
        GoldenCase{"lqn/ref_zero_multiplicity.lqn", "EPP-LQN-011",
                   Severity::kError, 6, 2},
        GoldenCase{"lqn/self_call.lqn", "EPP-LQN-012", Severity::kError, 6,
                   2},
        GoldenCase{"lqn/ref_calls_ref.lqn", "EPP-LQN-012", Severity::kError,
                   8, 2},
        GoldenCase{"lqn/bad_speed.lqn", "EPP-LQN-013", Severity::kError, 4,
                   2}),
    [](const auto& test_info) {
      std::string name = test_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(test_info.param.line);
    });

INSTANTIATE_TEST_SUITE_P(
    Workloads, LintCorpus,
    ::testing::Values(
        GoldenCase{"workloads/negative_clients.wkl", "EPP-WKL-001",
                   Severity::kError, 3, 2},
        GoldenCase{"workloads/negative_think.wkl", "EPP-WKL-002",
                   Severity::kError, 3, 2},
        GoldenCase{"workloads/bad_mix.wkl", "EPP-WKL-003", Severity::kError,
                   3, 2},
        GoldenCase{"workloads/empty.wkl", "EPP-WKL-004", Severity::kWarning,
                   3, 1}),
    [](const auto& test_info) {
      std::string name = test_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(test_info.param.line);
    });

INSTANTIATE_TEST_SUITE_P(
    FaultSpecs, LintCorpus,
    ::testing::Values(
        GoldenCase{"faults/malformed_clause.fspec", "EPP-FLT-001",
                   Severity::kError, 3, 2},
        GoldenCase{"faults/unknown_target.fspec", "EPP-FLT-002",
                   Severity::kError, 3, 2},
        GoldenCase{"faults/out_of_range.fspec", "EPP-FLT-003",
                   Severity::kError, 3, 2},
        GoldenCase{"faults/duplicate_knob.fspec", "EPP-FLT-004",
                   Severity::kError, 3, 2}),
    [](const auto& test_info) {
      std::string name = test_info.param.rule;
      for (char& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(test_info.param.line);
    });

// --- clean corpus: pipeline artifacts must not trip anything ---------------

TEST(LintCleanCorpus, CalibratedBundleProducesZeroFindings) {
  Diagnostics diagnostics;
  lint::lint_artifact_file(std::string(EPP_LINT_CORPUS_DIR) +
                               "/clean/trade.epp",
                           diagnostics);
  EXPECT_TRUE(diagnostics.empty()) << lint::render_text(diagnostics);
}

TEST(LintCleanCorpus, FreshlyCalibratedBundleTextProducesZeroFindings) {
  // End to end: run the real calibration pipeline (mix skipped for
  // speed) and lint what it would persist. This is the guarantee the
  // epp_calibrate self-check and the epp_sweep pre-run gate rely on.
  calib::CalibrationOptions options;
  options.measure_mix = false;
  const calib::CalibrationBundle bundle = calib::calibrate(options);
  Diagnostics diagnostics;
  lint::lint_bundle_text(calib::to_text(bundle), "fresh.epp", diagnostics);
  EXPECT_TRUE(diagnostics.empty()) << lint::render_text(diagnostics);
}

TEST(LintCleanCorpus, TradeLqnModelExitsZero) {
  // The paper's testbed model deliberately saturates its pools
  // (population 500 against a 50-wide app pool), which is note-worthy
  // but not wrong: nothing at warning severity or above.
  Diagnostics diagnostics;
  lint::lint_artifact_file(std::string(EPP_MODELS_DIR) + "/trade.lqn",
                           diagnostics);
  EXPECT_EQ(diagnostics.first_at_least(Severity::kWarning), nullptr)
      << lint::render_text(diagnostics);
  EXPECT_EQ(lint::exit_code(diagnostics), 0);
}

// --- one validity pass: validate() and lint agree ---------------------------

TEST(LqnValidityParity, ValidateThrowsIffCheckModelReportsAnError) {
  // Model::validate() and the EPP-LQN error rules are one pass
  // (lqn::check_model), so on every parseable model in the tree the
  // solver refuses exactly what lint calls an error.
  std::size_t models = 0;
  for (const char* root : {EPP_LINT_CORPUS_DIR, EPP_MODELS_DIR})
    for (const auto& item :
         std::filesystem::recursive_directory_iterator(root)) {
      if (item.path().extension() != ".lqn") continue;
      const std::string path = item.path().string();
      lqn::Model model;
      try {
        model = lqn::parse_model(read_file(path));
      } catch (const std::invalid_argument&) {
        continue;  // EPP-LQN-001 territory: nothing to validate
      }
      ++models;
      bool throws = false;
      try {
        model.validate();
      } catch (const std::invalid_argument&) {
        throws = true;
      }
      Diagnostics checked;
      lqn::check_model(model, path, checked);
      Diagnostics linted;
      lint::lint_artifact_file(path, linted);
      EXPECT_EQ(throws, checked.has_errors())
          << path << ":\n" << lint::render_text(checked);
      EXPECT_EQ(throws, linted.has_errors())
          << path << ":\n" << lint::render_text(linted);
    }
  EXPECT_GE(models, 16u);
}

TEST(LintCleanCorpus, WorkloadGridAndFaultSpecFilesAreClean) {
  Diagnostics grid;
  lint::lint_artifact_file(
      std::string(EPP_LINT_CORPUS_DIR) + "/clean/grid.wkl", grid);
  EXPECT_TRUE(grid.empty()) << lint::render_text(grid);

  Diagnostics faults;
  lint::lint_artifact_file(
      std::string(EPP_LINT_CORPUS_DIR) + "/clean/faults.fspec", faults);
  EXPECT_TRUE(faults.empty()) << lint::render_text(faults);
}

// --- dispatcher ------------------------------------------------------------

TEST(LintDispatcher, SniffsByExtensionThenContent) {
  EXPECT_EQ(lint::sniff_artifact("x.epp", ""), lint::ArtifactKind::kBundle);
  EXPECT_EQ(lint::sniff_artifact("x.lqn", ""), lint::ArtifactKind::kLqnModel);
  EXPECT_EQ(lint::sniff_artifact("x.wkl", ""),
            lint::ArtifactKind::kWorkloadGrid);
  EXPECT_EQ(lint::sniff_artifact("x.fspec", ""),
            lint::ArtifactKind::kFaultSpec);
  EXPECT_EQ(lint::sniff_artifact("x.txt", "epp-bundle v1\n"),
            lint::ArtifactKind::kBundle);
  EXPECT_EQ(lint::sniff_artifact("x.txt", "epp-workloads v1\n"),
            lint::ArtifactKind::kWorkloadGrid);
  EXPECT_EQ(lint::sniff_artifact("x.txt", "epp-faults v1\n"),
            lint::ArtifactKind::kFaultSpec);
  EXPECT_EQ(lint::sniff_artifact("x.txt", "# comment\nprocessor cpu ps\n"),
            lint::ArtifactKind::kLqnModel);
  EXPECT_EQ(lint::sniff_artifact("x.txt", "what is this\n"),
            lint::ArtifactKind::kUnknown);
}

TEST(LintDispatcher, UnreadableFileIsIo001) {
  Diagnostics diagnostics;
  lint::lint_artifact_file("/nonexistent/nowhere.epp", diagnostics);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics.all()[0].rule, "EPP-IO-001");
  EXPECT_EQ(lint::exit_code(diagnostics), 2);
}

// --- workload rules (EPP-WKL-*) behind the legacy throwing wrapper ---------

TEST(LintWorkload, CollectsEveryDefectInsteadOfThrowingFirst) {
  core::WorkloadSpec workload;
  workload.browse_clients = -1.0;
  workload.buy_clients = -2.0;
  workload.think_time_s = -3.0;
  Diagnostics diagnostics;
  core::lint_workload(workload, {"<grid>", 0}, diagnostics);
  EXPECT_EQ(diagnostics.count(Severity::kError), 3u)
      << lint::render_text(diagnostics);
  bool saw_wkl1 = false, saw_wkl2 = false;
  for (const Diagnostic& diagnostic : diagnostics.all()) {
    if (diagnostic.rule == "EPP-WKL-001") saw_wkl1 = true;
    if (diagnostic.rule == "EPP-WKL-002") saw_wkl2 = true;
  }
  EXPECT_TRUE(saw_wkl1);
  EXPECT_TRUE(saw_wkl2);
}

TEST(LintWorkload, EmptyWorkloadIsAWarningOnlyWhenOtherwiseValid) {
  core::WorkloadSpec empty;  // zero clients, valid fields
  Diagnostics diagnostics;
  core::lint_workload(empty, {}, diagnostics);
  EXPECT_EQ(diagnostics.count(Severity::kWarning), 1u);
  EXPECT_EQ(diagnostics.all()[0].rule, "EPP-WKL-004");

  core::WorkloadSpec invalid;
  invalid.browse_clients = -5.0;
  Diagnostics other;
  core::lint_workload(invalid, {}, other);
  for (const Diagnostic& diagnostic : other.all())
    EXPECT_NE(diagnostic.rule, "EPP-WKL-004")
        << "the empty-workload hint should not pile onto invalid fields";
}

TEST(LintWorkload, ValidateWorkloadStillThrowsTypedError) {
  core::WorkloadSpec workload;
  workload.browse_clients = -1.0;
  EXPECT_THROW(core::validate_workload(workload), core::InvalidWorkloadError);
  try {
    core::validate_workload(workload);
  } catch (const core::InvalidWorkloadError& error) {
    EXPECT_NE(std::string(error.what()).find("invalid workload"),
              std::string::npos);
  }
}

// --- fault-spec rules (EPP-FLT-*) ------------------------------------------

TEST(LintFaultSpec, DuplicateKnobThroughStarIsAnError) {
  // 'lqn:fail=0.3' plus '*:fail=0.05' assigns fail to lqn twice; the old
  // parser silently kept the last assignment.
  Diagnostics diagnostics;
  svc::lint_fault_spec("lqn:fail=0.3;*:fail=0.05", {"<spec>", 0},
                       diagnostics);
  ASSERT_TRUE(diagnostics.has_errors());
  EXPECT_EQ(diagnostics.first_at_least(Severity::kError)->rule,
            "EPP-FLT-004");
  EXPECT_THROW(svc::parse_fault_spec("lqn:fail=0.3;*:fail=0.05"),
               std::invalid_argument);
}

TEST(LintFaultSpec, DirectDuplicateIsAnError) {
  EXPECT_THROW(svc::parse_fault_spec("lqn:fail=0.1,fail=0.2"),
               std::invalid_argument);
  EXPECT_THROW(svc::parse_fault_spec("hybrid:latency-ms=1;hybrid:latency-ms=2"),
               std::invalid_argument);
}

TEST(LintFaultSpec, DistinctKnobsAndTargetsStillCompose) {
  const svc::FaultConfig config =
      svc::parse_fault_spec("lqn:latency-ms=20;*:fail=0.05");
  EXPECT_DOUBLE_EQ(config.lqn.latency_s, 0.02);
  EXPECT_DOUBLE_EQ(config.lqn.fail_probability, 0.05);
  EXPECT_DOUBLE_EQ(config.historical.fail_probability, 0.05);
  EXPECT_DOUBLE_EQ(config.hybrid.fail_probability, 0.05);
}

TEST(LintFaultSpec, CollectsEveryClauseDefect) {
  Diagnostics diagnostics;
  svc::lint_fault_spec("turbo:fail=0.1;lqn:bogus=1;hybrid:fail=abc",
                       {"<spec>", 0}, diagnostics);
  EXPECT_EQ(diagnostics.count(Severity::kError), 3u)
      << lint::render_text(diagnostics);
}

TEST(LintFaultSpec, NetTargetParsesEveryWireKnob) {
  const svc::FaultConfig config = svc::parse_fault_spec(
      "net:reset=0.05,truncate=0.02,accept-reset=0.1,accept-delay-ms=5,"
      "dribble-ms=2");
  EXPECT_DOUBLE_EQ(config.net.reset_p, 0.05);
  EXPECT_DOUBLE_EQ(config.net.truncate_p, 0.02);
  EXPECT_DOUBLE_EQ(config.net.accept_reset_p, 0.1);
  EXPECT_DOUBLE_EQ(config.net.accept_delay_s, 0.005);
  EXPECT_DOUBLE_EQ(config.net.dribble_s, 0.002);
  EXPECT_TRUE(config.net.any());
  // Wire chaos must NOT count as method faults: FaultConfig::any() is
  // what ResilientPredictor consults to classify injected failures as
  // retryable, and a net-only spec must not change that classification.
  EXPECT_FALSE(config.any());
}

TEST(LintFaultSpec, StarNeverExpandsToNet) {
  const svc::FaultConfig star = svc::parse_fault_spec("*:fail=0.1");
  EXPECT_FALSE(star.net.any());
  const svc::FaultConfig mixed =
      svc::parse_fault_spec("net:reset=0.5;*:fail=0.1,latency-ms=3");
  EXPECT_DOUBLE_EQ(mixed.net.reset_p, 0.5);
  EXPECT_DOUBLE_EQ(mixed.lqn.fail_probability, 0.1);
  EXPECT_DOUBLE_EQ(mixed.historical.latency_s, 0.003);
}

TEST(LintFaultSpec, DomainMismatchIsTypedError005) {
  // Wire knobs on a method target (and vice versa) are a category
  // mistake, not a typo: their own rule so the hint can point at the
  // right grammar.
  for (const char* bad : {"lqn:reset=0.1", "*:dribble-ms=5", "net:fail=0.5",
                          "net:latency-ms=10"}) {
    Diagnostics diagnostics;
    svc::lint_fault_spec(bad, {"<spec>", 0}, diagnostics);
    ASSERT_TRUE(diagnostics.has_errors()) << bad;
    EXPECT_EQ(diagnostics.first_at_least(Severity::kError)->rule,
              "EPP-FLT-005")
        << bad;
    EXPECT_THROW((void)svc::parse_fault_spec(bad), std::invalid_argument)
        << bad;
  }
}

TEST(LintFaultSpec, DuplicateNetKnobIsError004) {
  Diagnostics diagnostics;
  svc::lint_fault_spec("net:reset=0.1,reset=0.2", {"<spec>", 0}, diagnostics);
  ASSERT_TRUE(diagnostics.has_errors());
  EXPECT_EQ(diagnostics.first_at_least(Severity::kError)->rule,
            "EPP-FLT-004");
}

TEST(LintFaultSpec, NetProbabilitiesAreRangeCheckedLikeFail) {
  for (const char* bad :
       {"net:reset=1.5", "net:truncate=-0.1", "net:accept-reset=nan"}) {
    EXPECT_THROW((void)svc::parse_fault_spec(bad), std::invalid_argument)
        << bad;
  }
  // Delays are means in ms, not probabilities: values above 1 are fine.
  EXPECT_NO_THROW((void)svc::parse_fault_spec("net:accept-delay-ms=250"));
}

TEST(LintFaultSpec, NearTotalChaosWarns006ButStillParses) {
  // A storm that faults nearly every write (or refuses nearly every
  // accept) measures nothing; the spec is legal but suspicious, so it
  // parses with a warning — parse_fault_spec only throws on errors.
  Diagnostics writes;
  const svc::FaultConfig config = svc::lint_fault_spec(
      "net:reset=0.6,truncate=0.4", {"<spec>", 0}, writes);
  EXPECT_FALSE(writes.has_errors());
  EXPECT_EQ(writes.count(Severity::kWarning), 1u) << lint::render_text(writes);
  EXPECT_EQ(writes.first_at_least(Severity::kWarning)->rule, "EPP-FLT-006");
  EXPECT_DOUBLE_EQ(config.net.reset_p, 0.6);
  EXPECT_NO_THROW((void)svc::parse_fault_spec("net:reset=0.6,truncate=0.4"));

  Diagnostics accepts;
  svc::lint_fault_spec("net:accept-reset=0.95", {"<spec>", 0}, accepts);
  EXPECT_EQ(accepts.count(Severity::kWarning), 1u)
      << lint::render_text(accepts);

  Diagnostics sane;
  svc::lint_fault_spec("net:reset=0.3,truncate=0.3,accept-reset=0.5",
                       {"<spec>", 0}, sane);
  EXPECT_TRUE(sane.empty()) << lint::render_text(sane);
}

// --- bundle duplicate rejection through the legacy loader ------------------

TEST(BundleLoader, DuplicateRecordsNowThrow) {
  const std::string clean =
      read_file(std::string(EPP_LINT_CORPUS_DIR) + "/clean/trade.epp");
  EXPECT_NO_THROW(calib::bundle_from_text(clean));
  const std::string duplicated =
      read_file(std::string(EPP_LINT_CORPUS_DIR) +
                "/bundles/duplicate_gradient.epp");
  try {
    calib::bundle_from_text(duplicated);
    FAIL() << "duplicate gradient record was silently accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("epp bundle parse error, line 4"), std::string::npos)
        << what;
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
  }
}

TEST(BundleLoader, ParseInfoRecordsRecordLines) {
  const std::string clean =
      read_file(std::string(EPP_LINT_CORPUS_DIR) + "/clean/trade.epp");
  Diagnostics diagnostics;
  calib::BundleParseInfo info;
  calib::parse_bundle_text(clean, "trade.epp", diagnostics, &info);
  EXPECT_TRUE(diagnostics.empty()) << lint::render_text(diagnostics);
  EXPECT_TRUE(info.have_seeds);
  EXPECT_EQ(info.seeds_line, 2);
  EXPECT_EQ(info.gradient_line, 3);
  EXPECT_EQ(info.mean_model_line, 11);
  EXPECT_EQ(info.p90_model_line, 18);
  ASSERT_EQ(info.server_lines.size(), 3u);
  EXPECT_EQ(info.server_lines.at("AppServF"), 6);
}

TEST(BundleLoader, RecoveryCollectsSeveralDefectsInOnePass) {
  // One malformed record plus one duplicate: the old loader stopped at
  // the first; parse_bundle_text reports both.
  std::istringstream clean_stream(
      read_file(std::string(EPP_LINT_CORPUS_DIR) + "/clean/trade.epp"));
  std::ostringstream broken;
  std::string line;
  int line_no = 0;
  while (std::getline(clean_stream, line)) {
    ++line_no;
    if (line_no == 4) {
      broken << "lqn-params browse not a number at all\n";
      broken << line << '\n';  // keep the original so nothing is missing
      broken << line << '\n';  // ...and duplicate it
      continue;
    }
    broken << line << '\n';
  }
  Diagnostics diagnostics;
  calib::parse_bundle_text(broken.str(), "broken.epp", diagnostics);
  EXPECT_GE(diagnostics.count(Severity::kError), 2u)
      << lint::render_text(diagnostics);
  bool saw_malformed = false, saw_duplicate = false;
  for (const Diagnostic& diagnostic : diagnostics.all()) {
    if (diagnostic.rule == "EPP-BND-002") saw_malformed = true;
    if (diagnostic.rule == "EPP-BND-003") saw_duplicate = true;
  }
  EXPECT_TRUE(saw_malformed);
  EXPECT_TRUE(saw_duplicate);
}

}  // namespace
}  // namespace epp
