// The epp_lint rule library: static analysis for every artifact the
// pipeline reads or writes — LQN model files, `.epp` calibration
// bundles, workload grids and fault specs.
//
// Each rule has a stable ID (severity in parentheses = default):
//
//   EPP-LQN-001 (error)   model text does not parse
//   EPP-LQN-002 (error)   no reference (client) task drives the model
//   EPP-LQN-003 (error)   cycle in the synchronous call graph
//   EPP-LQN-004 (warning) task unreachable from every reference task
//   EPP-LQN-005 (error)   non-finite or negative demand / mean call count
//   EPP-LQN-006 (note)    zero-demand leaf entry (no demand, no calls)
//   EPP-LQN-007 (note)    reference population saturates a served pool
//   EPP-LQN-008 (warning) reference task declares a multiplicity above 1
//   EPP-LQN-009 (warning) branch-style call probabilities sum past 1
//   EPP-LQN-010 (error)   bad reference workload (population/rate/think)
//   EPP-LQN-011 (error)   malformed task shape (no entries; ref != 1;
//                         multiplicity 0)
//   EPP-LQN-012 (error)   illegal call target (own task / reference task)
//   EPP-LQN-013 (error)   processor speed not finite and positive, or
//                         processor multiplicity 0
//
//   EPP-BND-001 (error)   missing or bad `epp-bundle v1` header
//   EPP-BND-002 (error)   malformed record
//   EPP-BND-003 (error)   duplicate record or section
//   EPP-BND-004 (error)   required record missing
//   EPP-BND-005 (error)   truncated or unparsable embedded hydra model
//   EPP-BND-006 (error)   gradient record disagrees with embedded model
//   EPP-BND-010 (error)   non-finite / non-positive relationship-1 params
//   EPP-BND-011 (warning) relationship-2 trend violated: c_lower or
//                         lambda_upper not decreasing in max throughput
//   EPP-BND-012 (warning) gradient m implausible against the paper's
//                         7 s think time (m*think outside [0.1, 10])
//   EPP-BND-013 (error)   fewer than two established servers (the
//                         cross-server fit is under-determined)
//   EPP-BND-014 (warning) catalog max throughput disagrees with the
//                         embedded mean model's fit for that server
//   EPP-BND-015 (warning) seeds record absent (provenance lost)
//
//   EPP-WKL-001..004      workload grids — see core/trade_model.hpp;
//                         as a file, one `workload BROWSE BUY [THINK]`
//                         record per line under an `epp-workloads v1`
//                         header (*.wkl)
//   EPP-FLT-001..004      fault specs — see svc/fault.hpp; as a file,
//                         one spec string per line under an `epp-faults
//                         v1` header (*.fspec)
//   EPP-IO-001  (error)   artifact file unreadable
//
//   EPP-SEM-001..021      semantic verifier rules (interval-proven curve
//                         sanity, LQN convergence, fallback-chain
//                         coverage) — see lint/verify.hpp
//
// The WKL and FLT rules live next to their parsers (core and svc), and
// the error-severity LQN rules (002, 003, 005, 010..013) next to the
// model as lqn::check_model, which Model::validate() also runs; this
// library adds the advisory LQN rules, the bundle rules and the
// file-level dispatcher that `epp_check verify` and the pre-run gates in
// epp_sweep/epp_serve use.
#pragma once

#include <optional>
#include <string>

#include "lint/diagnostic.hpp"
#include "lqn/model.hpp"

namespace epp::lint {

/// Every EPP-LQN rule on an already-parsed model: lqn::check_model's
/// errors, then the advisory rules (004, 006..009). `file` names the
/// findings' artifact; `lines` (optional) lets them carry the declaring
/// line.
void lint_lqn_model(const lqn::Model& model, const std::string& file,
                    Diagnostics& diagnostics,
                    const lqn::DeclarationLines& lines = {});

/// An LQN model parsed from text, with the line of every declaration.
struct ParsedLqn {
  lqn::Model model;
  lqn::DeclarationLines lines;
};

/// Parse + semantic rules on LQN model text (EPP-LQN-001 on parse
/// failure, then everything lint_lqn_model reports). Returns the parsed
/// model, so callers need not parse again, or nullopt when the text does
/// not parse.
std::optional<ParsedLqn> lint_lqn_text(const std::string& text,
                                       const std::string& file,
                                       Diagnostics& diagnostics);

/// Structural (EPP-BND-001..006, via calib::parse_bundle_text) plus
/// semantic (EPP-BND-010..015) rules on `.epp` bundle text. Semantic
/// rules only run when the structure is clean enough to trust.
void lint_bundle_text(const std::string& text, const std::string& file,
                      Diagnostics& diagnostics);

/// Workload-grid text (*.wkl): an optional `epp-workloads v1` header,
/// then `workload BROWSE BUY [THINK]` records. Fields are parsed
/// leniently (a malformed number becomes NaN) so the EPP-WKL rules fire
/// per record instead of the file dying on the first bad token.
void lint_workload_grid_text(const std::string& text, const std::string& file,
                             Diagnostics& diagnostics);

/// Fault-spec text (*.fspec): an optional `epp-faults v1` header, then
/// one fault-spec string per line, each run through svc::lint_fault_spec
/// (the EPP-FLT rules) at its line number.
void lint_fault_spec_text(const std::string& text, const std::string& file,
                          Diagnostics& diagnostics);

/// What a file claims to be, decided by extension then content.
enum class ArtifactKind {
  kBundle,
  kLqnModel,
  kWorkloadGrid,
  kFaultSpec,
  kUnknown
};
ArtifactKind sniff_artifact(const std::string& path, const std::string& text);

/// Lint one artifact file: read it (EPP-IO-001 when unreadable), sniff
/// its kind and dispatch to the matching rules. Unknown kinds get an
/// EPP-IO-001 error rather than a silent pass.
void lint_artifact_file(const std::string& path, Diagnostics& diagnostics);

}  // namespace epp::lint
