// Versioned, refcounted calibration bundles for hot-swap serving.
//
// A long-running prediction daemon cannot restart to pick up a refit
// bundle, and it cannot blindly trust one either: a candidate that
// parses may still encode a semantically broken model (negative curve
// pieces, diverging solver parameters, dead fallback chains). The
// registry is the single promotion path:
//
//   1. a candidate CalibrationBundle arrives (reload frame, SIGHUP,
//      test harness);
//   2. the EPP-SEM verifier (lint::verify_bundle) gates it — any
//      semantic *error* rejects the candidate and the previously active
//      version keeps serving, which is the automatic-rollback contract:
//      promotion is gate-then-swap, so a failed gate simply never swaps;
//   3. an accepted candidate becomes a new immutable ServingVersion —
//      bundle, predictors and ResilientPredictor built once, then never
//      mutated — and the active pointer swaps atomically.
//
// In-flight requests are version-pinned: the server captures
// shared_ptr<const ServingVersion> at admission, so a request admitted
// under version N finishes on version N's predictors even if version
// N+1 is promoted mid-evaluation. Old versions die when their last
// pinned request drops the refcount; the registry itself keeps only the
// active version.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "calib/bundle.hpp"
#include "calib/predictor_set.hpp"
#include "lint/diagnostic.hpp"
#include "lint/verify.hpp"
#include "svc/resilient.hpp"
#include "util/annotations.hpp"
#include "util/lock_rank.hpp"

namespace epp::serve {

/// One immutable promoted bundle: everything a request needs to be
/// served, owned together so a shared_ptr pin keeps it all alive.
struct ServingVersion {
  std::uint64_t version = 0;
  std::string source;  // path or label the bundle was promoted from
  calib::CalibrationBundle bundle;
  calib::PredictorSet predictors;
  std::unique_ptr<svc::ResilientPredictor> resilient;
};

struct RegistryOptions {
  svc::BatchOptions batch;
  svc::ResilienceOptions resilience;
  /// EPP-SEM verifier configuration for the promotion gate. The chain
  /// rules run against `resilience` (kept in sync by the registry).
  lint::VerifyOptions verify;
  /// Gate candidates through the verifier; disable only in tests that
  /// deliberately promote broken bundles.
  bool gate = true;
};

struct PromotionResult {
  bool accepted = false;
  /// Active version after the attempt (the candidate's on success, the
  /// incumbent's on rejection).
  std::uint64_t active_version = 0;
  /// Verifier findings for the candidate (empty when the gate is off or
  /// construction failed before verification).
  lint::Diagnostics findings;
  std::string message;
};

struct RegistryStats {
  std::uint64_t promotions = 0;   // accepted candidates
  std::uint64_t rejections = 0;   // gate or construction failures
  std::uint64_t active_version = 0;  // 0 = nothing promoted yet
};

class BundleRegistry {
 public:
  explicit BundleRegistry(RegistryOptions options = {});

  /// Gate `bundle` through the EPP-SEM verifier and, on a clean pass,
  /// build its predictors and swap it in as the active version. On any
  /// failure the incumbent keeps serving untouched. `info` (optional)
  /// locates verifier findings on the candidate's source lines.
  PromotionResult promote(calib::CalibrationBundle bundle,
                          const std::string& source,
                          const calib::BundleParseInfo* info = nullptr);

  /// The active version, or nullptr before the first promotion. The
  /// returned pin keeps the version (bundle + predictors) alive for as
  /// long as the caller holds it — this is the capture point for
  /// per-request version pinning.
  std::shared_ptr<const ServingVersion> active() const;
  std::uint64_t active_version() const;

  RegistryStats stats() const;
  const RegistryOptions& options() const noexcept { return options_; }

 private:
  RegistryOptions options_;

  mutable util::RankedMutex mutex_{EPP_LOCK_RANK(30), "serve.registry"};
  std::shared_ptr<const ServingVersion> active_ EPP_GUARDED_BY(mutex_);
  std::uint64_t next_version_ EPP_GUARDED_BY(mutex_) = 1;

  struct Counters {
    std::uint64_t promotions = 0;
    std::uint64_t rejections = 0;
  };
  mutable Counters counters_ EPP_GUARDED_BY(mutex_);
};

}  // namespace epp::serve
