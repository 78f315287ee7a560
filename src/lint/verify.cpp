// Orchestration for the EPP-SEM verifier: structural lint first, then —
// only on structurally clean artifacts — the semantic analyzers. A
// malformed artifact never reaches the semantic layer, so every SEM rule
// may assume a well-formed model (the same layering lint_bundle_text
// uses internally for its own semantic BND rules).
#include "lint/verify.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace epp::lint {

void verify_bundle(const calib::CalibrationBundle& bundle,
                   const std::string& file,
                   const calib::BundleParseInfo* info,
                   const VerifyOptions& options, Diagnostics& diagnostics) {
  verify_hydra_curves(bundle, file, info, options, diagnostics);
  verify_fallback_chains(bundle, file, info, options, diagnostics);
}

namespace {

void verify_lqn_text(const std::string& text, const std::string& file,
                     const VerifyOptions& options, Diagnostics& diagnostics) {
  (void)options;
  Diagnostics structural;
  const std::optional<ParsedLqn> parsed =
      lint_lqn_text(text, file, structural);
  for (const Diagnostic& d : structural.all()) diagnostics.add(d);
  if (!parsed || structural.has_errors()) return;
  verify_lqn_model(parsed->model, file, diagnostics, parsed->lines);
}

}  // namespace

void verify_artifact_file(const std::string& path,
                          const VerifyOptions& options,
                          Diagnostics& diagnostics) {
  std::ifstream in(path);
  if (!in) {
    diagnostics.error("EPP-IO-001", {path, 0}, "cannot read file");
    return;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  switch (sniff_artifact(path, text)) {
    case ArtifactKind::kBundle: {
      // Lint findings and (when clean) the SEM findings, in one pass.
      Diagnostics structural;
      lint_bundle_text(text, path, structural);
      for (const Diagnostic& d : structural.all()) diagnostics.add(d);
      if (structural.has_errors()) return;
      Diagnostics scratch;
      calib::BundleParseInfo info;
      const calib::CalibrationBundle bundle =
          calib::parse_bundle_text(text, path, scratch, &info);
      verify_bundle(bundle, path, &info, options, diagnostics);
      return;
    }
    case ArtifactKind::kLqnModel:
      verify_lqn_text(text, path, options, diagnostics);
      return;
    case ArtifactKind::kWorkloadGrid:
      // No semantic layer beyond the per-record WKL rules.
      lint_workload_grid_text(text, path, diagnostics);
      return;
    case ArtifactKind::kFaultSpec:
      lint_fault_spec_text(text, path, diagnostics);
      return;
    case ArtifactKind::kUnknown:
      lint_artifact_file(path, diagnostics);  // emits the EPP-IO-001 advice
      return;
  }
}

}  // namespace epp::lint
