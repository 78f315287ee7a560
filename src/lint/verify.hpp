// The EPP-SEM semantic verifier behind `epp_check verify`: interval
// abstract interpretation over the paper's fitted models — the layer
// above lint in the artifact pre-flight. Lint (lint.hpp) proves an
// artifact is *structurally* sound; the EPP-SEM rules here prove it is
// *semantically* sane: the prediction curves it encodes stay
// non-negative and monotone, the layered solver it will be fed can
// converge, and every request a serving configuration can receive has a
// terminating fallback chain.
//
// Every curve rule is decided with the outward-rounded interval domain in
// interval.hpp: a property is either proven over the whole client range,
// or refuted with a concrete witness load carried into the fix-it hint.
// Undecided (budget-exhausted) queries are never flagged — the verifier
// only reports what it can demonstrate.
//
// Rule catalog (severity in parentheses):
//
//   HYDRA curve analyzer — per server, per embedded model (mean and p90),
//   on the *raw* piecewise equations the artifact persists (the runtime
//   clamps in Relationship1::predict_metric can mask these defects, which
//   is exactly why they must be caught before serving):
//   EPP-SEM-001 (error)   a prediction piece goes negative on its active
//                         range (witness client count)
//   EPP-SEM-002 (error)   degenerate transition band: lower(66%) or
//                         upper(110%) endpoint is non-positive, so the
//                         paper's phased transition is undefined and the
//                         curve discontinuous at the boundary
//   EPP-SEM-003 (warning) curve not monotone across the transition band:
//                         upper(110%) < lower(66%) (witness pair)
//   EPP-SEM-004 (warning) relationship-3 mix fit predicts a non-positive
//                         max throughput within buy = [0, 100]%
//   EPP-SEM-005 (warning) relationship-2 extrapolation breaks down at a
//                         sampled hypothetical max throughput (raw
//                         c_lower fit non-positive pre-clamp, or the
//                         derived curve fails the 001/002/003 checks)
//
//   LQN convergence pre-checker (today these surface only at runtime, as
//   a std::domain_error from the MVA core or a SolverDivergedError /
//   converged=false from the layered solver):
//   EPP-SEM-010 (error)   open arrivals saturate a station (utilization
//                         >= 1 after the solver's own flattening)
//   EPP-SEM-011 (error)   priority starvation with finite-pool feedback:
//                         contraction estimate >= 1, the layered
//                         fixed point will not converge
//   EPP-SEM-012 (warning) contraction estimate in [0.5, 1): convergence
//                         at risk (slow, or divergent near the boundary)
//
//   Fallback-chain coverage over ResilientPredictor configurations:
//   EPP-SEM-020 (error)   a (method, server) request has no viable method
//                         anywhere in its fallback chain
//   EPP-SEM-021 (warning) chain with a single viable method while circuit
//                         breaking is armed and the stale store disabled:
//                         one open breaker dead-ends the chain
//
// The clean contract mirrors lint's: every artifact the calibration
// pipeline produces must verify with zero findings under default options
// (pinned by tests/lint_verify_test.cpp against the golden corpus).
#pragma once

#include <string>
#include <vector>

#include "calib/bundle.hpp"
#include "lint/diagnostic.hpp"
#include "lint/lint.hpp"
#include "lqn/model.hpp"
#include "svc/prediction_cache.hpp"
#include "svc/resilient.hpp"

namespace epp::lint {

struct VerifyOptions {
  /// Client range verified per server: [0, factor * clients-at-max-
  /// throughput]. 2.0 covers the paper's whole operating envelope (the
  /// upper equation's region plus headroom past the 110% boundary).
  double max_clients_factor = 2.0;
  /// Relationship-2 spot checks: this many hypothetical max throughputs,
  /// evenly spaced over [0.5 * smallest, hypothetical_span * largest]
  /// catalog max throughput — the range add_new_server may be asked to
  /// extrapolate into.
  int hypothetical_samples = 7;
  double hypothetical_span = 1.5;
  /// Serving configuration the chain analyzer proves coverage for. Tools
  /// pass their real options; the defaults match ResilienceOptions.
  svc::ResilienceOptions resilience;
  /// Methods requests may ask for (empty = all three).
  std::vector<svc::Method> methods;
  bool check_chains = true;
};

/// HYDRA curve rules (EPP-SEM-001..005) over one parsed bundle. `info`
/// (optional) locates findings on the embedded model's source lines.
void verify_hydra_curves(const calib::CalibrationBundle& bundle,
                         const std::string& file,
                         const calib::BundleParseInfo* info,
                         const VerifyOptions& options,
                         Diagnostics& diagnostics);

/// Fallback-chain rules (EPP-SEM-020/021) over one parsed bundle under
/// the configured serving options.
void verify_fallback_chains(const calib::CalibrationBundle& bundle,
                            const std::string& file,
                            const calib::BundleParseInfo* info,
                            const VerifyOptions& options,
                            Diagnostics& diagnostics);

/// Every bundle-level semantic rule (curves + chains).
void verify_bundle(const calib::CalibrationBundle& bundle,
                   const std::string& file,
                   const calib::BundleParseInfo* info,
                   const VerifyOptions& options, Diagnostics& diagnostics);

/// LQN convergence pre-check (EPP-SEM-010..012) on a parsed model. The
/// model must already be lint-clean (structurally valid); `index` lets
/// findings point at declaring lines.
void verify_lqn_model(const lqn::Model& model, const std::string& file,
                      Diagnostics& diagnostics,
                      const LqnSourceIndex* index = nullptr);

/// Full pre-flight on one artifact file: lint first (all of
/// lint_artifact_file's findings), then — only when lint found no errors
/// — the semantic EPP-SEM rules for the artifact's kind. Workload grids
/// and fault specs have no semantic layer; they get lint only.
void verify_artifact_file(const std::string& path,
                          const VerifyOptions& options,
                          Diagnostics& diagnostics);

}  // namespace epp::lint
