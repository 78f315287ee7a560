// The epp_lint diagnostic engine: rule-coded, source-located findings.
//
// Every artifact the pipeline produces — LQN model files, `.epp`
// calibration bundles, workload grids, fault-spec strings — used to be
// checked only dynamically, at load or mid-solve, so an implausible
// bundle surfaced minutes into a sweep as NaNs or a divergence. The
// linter runs the same checks ahead of time and reports *all* findings
// at once, each carrying:
//
//   * a rule ID in a namespaced catalog (EPP-LQN-*, EPP-BND-*,
//     EPP-WKL-*, EPP-FLT-*; see README.md for the catalog),
//   * a severity — error (artifact unusable), warning (suspicious,
//     likely wrong), note (worth knowing, not wrong),
//   * a source location (file plus 1-based line; line 0 means the
//     finding applies to the artifact as a whole),
//   * and an optional fix-it hint.
//
// The engine is deliberately dependency-free so parse layers (calib,
// svc, core) can emit diagnostics without depending on the rule
// library; the rules live in src/lint/rules_*.cpp behind lint.hpp.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace epp::lint {

enum class Severity { kNote, kWarning, kError };

/// "note" / "warning" / "error".
const char* severity_name(Severity severity);

/// Where a finding points. line is 1-based; 0 means "the whole artifact"
/// (e.g. a missing required record). file may name a real path or a
/// synthetic origin like "<spec>" for command-line strings.
struct SourceLocation {
  std::string file;
  int line = 0;
};

struct Diagnostic {
  std::string rule;  // catalog ID, e.g. "EPP-LQN-003"
  Severity severity = Severity::kError;
  SourceLocation location;
  std::string message;
  std::string hint;  // optional fix-it suggestion; empty when none

  bool operator==(const Diagnostic&) const = default;
};

/// An append-only collector. Rules add findings; renderers and exit-code
/// policy read them back. Not thread-safe (lint passes are single-run).
class Diagnostics {
 public:
  Diagnostic& add(Diagnostic diagnostic);
  Diagnostic& error(std::string rule, SourceLocation location,
                    std::string message, std::string hint = "");
  Diagnostic& warning(std::string rule, SourceLocation location,
                      std::string message, std::string hint = "");
  Diagnostic& note(std::string rule, SourceLocation location,
                   std::string message, std::string hint = "");

  const std::vector<Diagnostic>& all() const noexcept { return diagnostics_; }
  bool empty() const noexcept { return diagnostics_.empty(); }
  std::size_t size() const noexcept { return diagnostics_.size(); }
  std::size_t count(Severity severity) const;
  bool has_errors() const { return count(Severity::kError) > 0; }

  /// First finding at `severity` or worse; nullptr when none.
  const Diagnostic* first_at_least(Severity severity) const;

  /// Stable-sort findings by (file, line, rule ID) for rendering, so
  /// output is deterministic regardless of rule-execution order;
  /// emission order breaks remaining ties.
  void sort_by_location();

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// Format a numeric value for a finding message: default stream
/// precision, so populations print as "500" and fitted parameters as
/// "0.00567" instead of std::to_string's fixed six decimals.
std::string fmt_value(double value);

/// Process exit code policy shared by every linting entry point:
/// 0 = clean or notes only, 1 = warnings, 2 = errors.
int exit_code(const Diagnostics& diagnostics);

/// Compiler-style text: "file:line: severity: [RULE] message" plus an
/// indented "fix-it:" line when a hint is present.
std::string render_text(const Diagnostics& diagnostics);

/// JSON array of {file, line, severity, rule, message, hint} objects
/// (machine-readable CI artifact; stable key order).
std::string render_json(const Diagnostics& diagnostics);

/// The pre-run gate every tool applies to its inputs: print the whole
/// findings list, sorted by location, as text to `out` (nothing when
/// there are none) and return whether any finding is an error. The
/// caller prints its own refusal line and picks its exit code.
bool report_findings(const Diagnostics& findings, std::ostream& out);

}  // namespace epp::lint
