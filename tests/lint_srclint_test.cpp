// epp_srclint — the source-level concurrency / hot-path analyzer.
//
// Three contracts are pinned here:
//
//   1. The defect corpus (tests/lint_corpus/src): every file seeds one
//      or more defects, and the table below fixes the exact rule ID,
//      severity and line the analyzer must report. A scanner regression
//      that shifts, drops or duplicates a finding fails the table.
//   2. The clean-tree gate: the repo's own src/ and tools/ trees lint
//      to zero findings. CI enforces the same invariant with the
//      `epp_check src` binary; this test catches it at `ctest` time.
//   3. Suppression semantics: `// epp-lint: ignore(<RULE>)` silences
//      exactly its target line, stale suppressions surface as
//      EPP-META-001, and --no-suppress reveals everything.
//   4. The determinism family (EPP-DET): rule filtering via
//      SrclintOptions::rule_prefixes, and the static/runtime
//      cross-check — det_replay_divergence.cpp is #included below and
//      executed twice, so the same source line the analyzer flags is
//      shown to actually diverge between "runs".

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "lint/diagnostic.hpp"
#include "lint/src/srclint.hpp"
#include "lint/suppress.hpp"

#include "lint_corpus/src/det_replay_divergence.cpp"  // the shared defect fixture

namespace epp {
namespace {

using lint::Diagnostic;
using lint::Diagnostics;
using lint::Severity;
using lint::SrclintOptions;

std::string corpus_dir() {
  return std::string(EPP_LINT_CORPUS_DIR) + "/src";
}

Diagnostics lint_paths(const std::vector<std::string>& paths,
                       bool use_suppressions = true) {
  SrclintOptions options;
  options.use_suppressions = use_suppressions;
  Diagnostics diagnostics;
  lint::lint_sources(paths, diagnostics, options);
  return diagnostics;
}

// --- 1. the golden corpus --------------------------------------------------

struct GoldenFinding {
  const char* file;
  int line;
  const char* rule;
  Severity severity;
};

// Sorted the way sort_by_location sorts: (file, line, rule).
const GoldenFinding kGolden[] = {
    {"blocking_under_lock.cpp", 14, "EPP-CONC-003", Severity::kWarning},
    {"cas_retry.cpp", 11, "EPP-CONC-007", Severity::kWarning},
    {"det_default_seed.cpp", 8, "EPP-DET-005", Severity::kWarning},
    {"det_entropy_seed.cpp", 13, "EPP-DET-001", Severity::kError},
    {"det_entropy_seed.cpp", 15, "EPP-DET-001", Severity::kError},
    {"det_parallel_accumulator.cpp", 13, "EPP-DET-004", Severity::kError},
    {"det_pointer_key.cpp", 9, "EPP-DET-006", Severity::kWarning},
    {"det_replay_divergence.cpp", 12, "EPP-DET-001", Severity::kError},
    {"det_std_distribution.cpp", 10, "EPP-DET-002", Severity::kError},
    {"det_std_distribution.cpp", 11, "EPP-DET-002", Severity::kError},
    {"det_unordered_accumulate.cpp", 11, "EPP-DET-003", Severity::kError},
    {"det_unordered_emit.cpp", 11, "EPP-DET-003", Severity::kError},
    {"det_unordered_schedule.cpp", 14, "EPP-DET-003", Severity::kError},
    {"detached_thread.cpp", 8, "EPP-CONC-006", Severity::kWarning},
    {"double_lock.cpp", 12, "EPP-CONC-002", Severity::kError},
    {"guarded_bare_access.cpp", 18, "EPP-CONC-005", Severity::kWarning},
    {"hot_alloc.cpp", 9, "EPP-HOT-001", Severity::kWarning},
    {"hot_function.cpp", 11, "EPP-HOT-002", Severity::kWarning},
    {"hot_io.cpp", 11, "EPP-HOT-004", Severity::kWarning},
    {"hot_lock.cpp", 13, "EPP-HOT-003", Severity::kWarning},
    {"hot_unbalanced.cpp", 8, "EPP-HOT-005", Severity::kError},
    {"hot_unbalanced.cpp", 11, "EPP-HOT-005", Severity::kError},
    {"hot_unbalanced.cpp", 14, "EPP-HOT-005", Severity::kError},
    {"hot_unbalanced.cpp", 17, "EPP-HOT-005", Severity::kError},
    {"lock_cycle.cpp", 8, "EPP-CONC-008", Severity::kWarning},
    {"lock_cycle.cpp", 9, "EPP-CONC-008", Severity::kWarning},
    {"lock_cycle.cpp", 10, "EPP-CONC-008", Severity::kWarning},
    {"lock_cycle.cpp", 14, "EPP-CONC-001", Severity::kError},
    {"rank_inversion.cpp", 24, "EPP-CONC-001", Severity::kError},
    {"suppression_unused.cpp", 6, "EPP-META-001", Severity::kWarning},
    {"unranked_mutex.cpp", 9, "EPP-CONC-008", Severity::kWarning},
    {"unranked_mutex.cpp", 10, "EPP-CONC-008", Severity::kWarning},
    {"wait_without_predicate.cpp", 9, "EPP-CONC-008", Severity::kWarning},
    {"wait_without_predicate.cpp", 15, "EPP-CONC-004", Severity::kWarning},
    {"wait_without_predicate.cpp", 16, "EPP-CONC-004", Severity::kWarning},
};

TEST(SrclintCorpus, EveryDefectPinnedToRuleSeverityAndLine) {
  const Diagnostics diagnostics = lint_paths({corpus_dir()});
  ASSERT_EQ(diagnostics.size(), std::size(kGolden));
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    const GoldenFinding& want = kGolden[i];
    const Diagnostic& got = diagnostics.all()[i];
    const std::string file = corpus_dir() + "/" + want.file;
    EXPECT_EQ(got.location.file, file) << "finding " << i;
    EXPECT_EQ(got.location.line, want.line) << "finding " << i;
    EXPECT_EQ(got.rule, want.rule) << "finding " << i;
    EXPECT_EQ(got.severity, want.severity) << "finding " << i;
    EXPECT_FALSE(got.message.empty()) << "finding " << i;
  }
}

TEST(SrclintCorpus, CorpusCoversTheWholeRuleCatalog) {
  // Every rule in lint::srclint_rule_ids() (the list `epp_check src
  // --rules` validates against) has a seeded defect, and the corpus
  // trips nothing outside it. EPP-META-002 (unreadable input) is pinned
  // by MissingInputIsMeta002Error instead.
  std::vector<std::string> covered;
  for (const GoldenFinding& finding : kGolden) covered.push_back(finding.rule);
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  std::vector<std::string> expected;
  for (const std::string_view rule : lint::srclint_rule_ids())
    if (rule != "EPP-META-002") expected.emplace_back(rule);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(covered, expected);
}

TEST(SrclintCorpus, ExitCodeIsMaxSeverity) {
  const Diagnostics diagnostics = lint_paths({corpus_dir()});
  EXPECT_EQ(lint::exit_code(diagnostics), 2);  // errors present

  const Diagnostics warnings_only =
      lint_paths({corpus_dir() + "/detached_thread.cpp"});
  EXPECT_EQ(lint::exit_code(warnings_only), 1);

  const Diagnostics clean =
      lint_paths({corpus_dir() + "/suppressed_clean.cpp"});
  EXPECT_EQ(lint::exit_code(clean), 0);
}

TEST(SrclintCorpus, RankInversionElidesTheRedundantCycleReport) {
  // rank_inversion.cpp's two functions form a low->high->low cycle; the
  // rank rule already explains the descending edge, so exactly one
  // EPP-CONC-001 must come out — not a second, cycle-phrased duplicate.
  const Diagnostics diagnostics =
      lint_paths({corpus_dir() + "/rank_inversion.cpp"});
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics.all()[0].rule, "EPP-CONC-001");
  EXPECT_NE(diagnostics.all()[0].message.find("rank"), std::string::npos);
}

TEST(SrclintCorpus, PureCycleIsReportedOnceWithTheFullChain) {
  const Diagnostics diagnostics =
      lint_paths({corpus_dir() + "/lock_cycle.cpp"});
  int cycles = 0;
  for (const Diagnostic& diagnostic : diagnostics.all()) {
    if (diagnostic.rule != "EPP-CONC-001") continue;
    ++cycles;
    EXPECT_NE(diagnostic.message.find(
                  "cycle_a -> cycle_b -> cycle_c -> cycle_a"),
              std::string::npos)
        << diagnostic.message;
  }
  EXPECT_EQ(cycles, 1);
}

TEST(SrclintCorpus, MissingInputIsMeta002Error) {
  const Diagnostics diagnostics =
      lint_paths({corpus_dir() + "/no_such_file.cpp"});
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics.all()[0].rule, "EPP-META-002");
  EXPECT_EQ(diagnostics.all()[0].severity, Severity::kError);
  EXPECT_EQ(lint::exit_code(diagnostics), 2);
}

// --- 2. the clean-tree gate ------------------------------------------------

TEST(SrclintCleanTree, RepoSourcesAndToolsLintToZeroFindings) {
  const std::string root = EPP_SOURCE_ROOT;
  const Diagnostics diagnostics =
      lint_paths({root + "/src", root + "/tools"});
  EXPECT_TRUE(diagnostics.empty())
      << "the annotated tree must stay clean; found:\n"
      << lint::render_text(diagnostics);
}

// --- 3. suppression semantics ----------------------------------------------

TEST(SrclintSuppression, StandaloneCommentSilencesTheNextLine) {
  const Diagnostics honored =
      lint_paths({corpus_dir() + "/suppressed_clean.cpp"});
  EXPECT_TRUE(honored.empty()) << lint::render_text(honored);

  const Diagnostics revealed = lint_paths(
      {corpus_dir() + "/suppressed_clean.cpp"}, /*use_suppressions=*/false);
  ASSERT_EQ(revealed.size(), 1u);
  EXPECT_EQ(revealed.all()[0].rule, "EPP-CONC-006");
}

TEST(SrclintSuppression, TrailingCommentSilencesItsOwnLine) {
  const std::string text =
      "#include <thread>\n"
      "void f() {\n"
      "  std::thread t([] {});\n"
      "  t.detach();  // epp-lint: ignore(EPP-CONC-006) shutdown-free\n"
      "}\n";
  const std::vector<lint::Suppression> suppressions =
      lint::find_suppressions("f.cpp", text);
  ASSERT_EQ(suppressions.size(), 1u);
  EXPECT_EQ(suppressions[0].line, 4);
  EXPECT_EQ(suppressions[0].target_line, 4);  // trailing: its own line
  ASSERT_EQ(suppressions[0].rules.size(), 1u);
  EXPECT_EQ(suppressions[0].rules[0], "EPP-CONC-006");
}

TEST(SrclintSuppression, QuotedMarkerTextIsNotASuppression) {
  const std::string text =
      "const char* doc = \"// epp-lint: ignore(EPP-CONC-006)\";\n";
  EXPECT_TRUE(lint::find_suppressions("f.cpp", text).empty());
}

TEST(SrclintSuppression, MalformedRuleListIsIgnored) {
  // Lowercase / placeholder rule names (as used in documentation) must
  // not register as suppressions — and therefore can never go stale.
  const std::string text =
      "// epp-lint: ignore(<RULE>)\n"
      "// epp-lint: ignore(rule)\n"
      "// epp-lint: ignore EPP-CONC-006\n";
  EXPECT_TRUE(lint::find_suppressions("f.cpp", text).empty());
}

TEST(SrclintSuppression, MultiRuleCommentTracksEachRuleSeparately) {
  // One rule fires, the other is stale: the finding is suppressed AND
  // the stale half is reported.
  Diagnostics input;
  input.warning("EPP-CONC-006", {"f.cpp", 4}, "detached thread");
  lint::Suppression suppression;
  suppression.file = "f.cpp";
  suppression.line = 3;
  suppression.target_line = 4;
  suppression.rules = {"EPP-CONC-006", "EPP-HOT-001"};
  const Diagnostics output =
      lint::apply_suppressions(input, {suppression});
  ASSERT_EQ(output.size(), 1u);
  EXPECT_EQ(output.all()[0].rule, "EPP-META-001");
  EXPECT_NE(output.all()[0].message.find("EPP-HOT-001"), std::string::npos);
  EXPECT_EQ(output.all()[0].message.find("EPP-CONC-006"), std::string::npos);
}

TEST(SrclintSuppression, StaleSuppressionIsMeta001) {
  const Diagnostics diagnostics =
      lint_paths({corpus_dir() + "/suppression_unused.cpp"});
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics.all()[0].rule, "EPP-META-001");
  EXPECT_EQ(diagnostics.all()[0].location.line, 6);
  // --no-suppress: nothing to report at all (the defect never existed).
  EXPECT_TRUE(
      lint_paths({corpus_dir() + "/suppression_unused.cpp"}, false).empty());
}

TEST(SrclintSuppression, DeterminismFindingCanBeSuppressedToo) {
  const Diagnostics honored =
      lint_paths({corpus_dir() + "/det_suppressed_iteration.cpp"});
  EXPECT_TRUE(honored.empty()) << lint::render_text(honored);

  const Diagnostics revealed =
      lint_paths({corpus_dir() + "/det_suppressed_iteration.cpp"},
                 /*use_suppressions=*/false);
  ASSERT_EQ(revealed.size(), 1u);
  EXPECT_EQ(revealed.all()[0].rule, "EPP-DET-003");
  EXPECT_EQ(revealed.all()[0].location.line, 12);
}

// --- 4. the determinism family ---------------------------------------------

Diagnostics lint_filtered(const std::vector<std::string>& paths,
                          const std::vector<std::string>& prefixes) {
  SrclintOptions options;
  options.rule_prefixes = prefixes;
  Diagnostics diagnostics;
  lint::lint_sources(paths, diagnostics, options);
  return diagnostics;
}

TEST(SrclintRuleFilter, PrefixFilterKeepsOnlyMatchingFamilies) {
  const Diagnostics det_only = lint_filtered({corpus_dir()}, {"EPP-DET"});
  ASSERT_FALSE(det_only.empty());
  for (const Diagnostic& diagnostic : det_only.all())
    EXPECT_EQ(diagnostic.rule.rfind("EPP-DET", 0), 0u) << diagnostic.rule;

  // A filter narrowed to one rule keeps exactly that rule's findings.
  const Diagnostics one_rule = lint_filtered({corpus_dir()}, {"EPP-DET-003"});
  ASSERT_EQ(one_rule.size(), 3u);
  for (const Diagnostic& diagnostic : one_rule.all())
    EXPECT_EQ(diagnostic.rule, "EPP-DET-003");
}

TEST(SrclintRuleFilter, DisabledFamilySuppressionsDoNotGoStale) {
  // det_suppressed_iteration.cpp suppresses an EPP-DET-003; with the
  // family disabled the suppression must be dropped quietly, not
  // reported as stale EPP-META-001.
  const Diagnostics conc_only = lint_filtered(
      {corpus_dir() + "/det_suppressed_iteration.cpp"}, {"EPP-CONC"});
  EXPECT_TRUE(conc_only.empty()) << lint::render_text(conc_only);
}

TEST(SrclintRuleFilter, MissingInputStillSurfacesThroughTheFilter) {
  // EPP-META-002 (bad input) must not be filterable away.
  const Diagnostics diagnostics = lint_filtered(
      {corpus_dir() + "/no_such_file.cpp"}, {"EPP-DET"});
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics.all()[0].rule, "EPP-META-002");
}

TEST(SrclintDeterminism, StaticFindingAndRuntimeDivergenceAgree) {
  // Static side: the analyzer pins the std::random_device read.
  const Diagnostics diagnostics =
      lint_paths({corpus_dir() + "/det_replay_divergence.cpp"});
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics.all()[0].rule, "EPP-DET-001");
  EXPECT_EQ(diagnostics.all()[0].location.line, 12);

  // Runtime side: execute the flagged code twice — the miniature
  // version of `epp_check replay`'s run-a/run-b — and observe the divergence
  // the rule predicts. Eight 32-bit hardware draws colliding twice in
  // a row is beyond astronomically unlikely.
  const auto run_a = lint_corpus::entropy_draws();
  const auto run_b = lint_corpus::entropy_draws();
  EXPECT_NE(run_a, run_b)
      << "two entropy-seeded runs produced identical draw sequences";
}

}  // namespace
}  // namespace epp
