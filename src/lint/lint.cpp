#include "lint/lint.hpp"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/trade_model.hpp"
#include "svc/fault.hpp"

namespace epp::lint {
namespace {

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// First non-empty, non-comment line of the text.
std::string first_payload_line(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line))
    if (!line.empty() && line[0] != '#') return line;
  return "";
}

/// Lenient numeric field: a missing or malformed token becomes NaN, so
/// the per-field EPP-WKL rules report it instead of a parse abort.
double lenient_number(const std::string& token) {
  if (token.empty()) return std::numeric_limits<double>::quiet_NaN();
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0')
    return std::numeric_limits<double>::quiet_NaN();
  return value;
}

bool is_comment_or_blank(const std::string& line) {
  for (const char c : line) {
    if (c == ' ' || c == '\t') continue;
    return c == '#';
  }
  return true;
}

}  // namespace

void lint_workload_grid_text(const std::string& text, const std::string& file,
                             Diagnostics& diagnostics) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (is_comment_or_blank(line)) continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "epp-workloads") continue;  // header
    if (kind != "workload") continue;       // unknown records pass through
    std::string browse, buy, think;
    ls >> browse >> buy >> think;
    core::WorkloadSpec workload;
    workload.browse_clients = lenient_number(browse);
    workload.buy_clients = lenient_number(buy);
    if (!think.empty()) workload.think_time_s = lenient_number(think);
    core::lint_workload(workload, {file, line_no}, diagnostics);
  }
}

void lint_fault_spec_text(const std::string& text, const std::string& file,
                          Diagnostics& diagnostics) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (is_comment_or_blank(line)) continue;
    if (line.rfind("epp-faults", 0) == 0) continue;  // header
    svc::lint_fault_spec(line, {file, line_no}, diagnostics);
  }
}

ArtifactKind sniff_artifact(const std::string& path, const std::string& text) {
  if (ends_with(path, ".epp")) return ArtifactKind::kBundle;
  if (ends_with(path, ".lqn")) return ArtifactKind::kLqnModel;
  if (ends_with(path, ".wkl")) return ArtifactKind::kWorkloadGrid;
  if (ends_with(path, ".fspec")) return ArtifactKind::kFaultSpec;
  // Extension didn't decide; let the content. Bundles, workload grids and
  // fault specs open with versioned headers, LQN models with one of four
  // declarations.
  const std::string head = first_payload_line(text);
  if (head.rfind("epp-bundle", 0) == 0) return ArtifactKind::kBundle;
  if (head.rfind("epp-workloads", 0) == 0) return ArtifactKind::kWorkloadGrid;
  if (head.rfind("epp-faults", 0) == 0) return ArtifactKind::kFaultSpec;
  for (const char* decl : {"processor ", "task ", "entry ", "call "})
    if (head.rfind(decl, 0) == 0) return ArtifactKind::kLqnModel;
  return ArtifactKind::kUnknown;
}

void lint_artifact_file(const std::string& path, Diagnostics& diagnostics) {
  std::ifstream in(path);
  if (!in) {
    diagnostics.error("EPP-IO-001", {path, 0}, "cannot read file");
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  switch (sniff_artifact(path, text)) {
    case ArtifactKind::kBundle:
      lint_bundle_text(text, path, diagnostics);
      return;
    case ArtifactKind::kLqnModel:
      lint_lqn_text(text, path, diagnostics);
      return;
    case ArtifactKind::kWorkloadGrid:
      lint_workload_grid_text(text, path, diagnostics);
      return;
    case ArtifactKind::kFaultSpec:
      lint_fault_spec_text(text, path, diagnostics);
      return;
    case ArtifactKind::kUnknown:
      diagnostics.error("EPP-IO-001", {path, 0},
                        "cannot tell what kind of artifact this is",
                        "bundles start with 'epp-bundle v1'; LQN models "
                        "with processor/task/entry/call declarations; "
                        "workload grids with 'epp-workloads v1'; fault "
                        "specs with 'epp-faults v1'; or name the file "
                        "*.epp / *.lqn / *.wkl / *.fspec");
      return;
  }
}

}  // namespace epp::lint
