// Fault-tolerant prediction serving on top of the batch engine.
//
// The paper's resource manager treats predictors as infallible functions;
// in practice a serving layer sees miscalibrated models, diverging
// solvers, malformed workloads and transient evaluation failures. The
// ResilientPredictor wraps BatchPredictor with the standard reliability
// toolkit, tuned for deterministic testing:
//
//   * typed outcomes — every request returns Expected<ResilientResult>:
//     either a served prediction (annotated with who served it and how)
//     or a PredictionError with a machine-readable code. Nothing escapes
//     as an exception.
//   * deadlines — a per-request budget (plus an optional per-batch
//     budget) enforced cooperatively: the active token is installed as
//     the thread-local ambient token (util/cancellation.hpp) and polled
//     inside the MVA / layered-solver loops. Virtual latency charged by
//     the FaultInjector counts against the deadline without any sleeps.
//   * retries — transient failures (injected faults) retry with capped
//     exponential backoff and seeded jitter.
//   * fallback chain — lqn degrades to hybrid then historical (hybrid to
//     historical); results served by a fallback are flagged. As a last
//     resort the engine cache's answer for the request's quantized
//     workload is replayed, flagged `stale`.
//
// The layer keeps no per-(method, server) health state. Without fault
// injection a failure depends only on its request, and so does the
// chain's answer; stale replay, which reads the engine cache, is the one
// answer that depends on history.
//
// Fast-path contract: with no deadline, no batch budget and no latency
// injection the serving layer performs no clock reads and no allocation
// beyond the wrapped engine — see bench/resilience_overhead.cpp.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/predictor.hpp"
#include "svc/batch_predictor.hpp"
#include "util/cancellation.hpp"
#include "util/thread_pool.hpp"

namespace epp::svc {

struct PredictionError {
  ErrorCode code = ErrorCode::kInternal;
  Method method = Method::kHistorical;  // method the error is attributed to
  std::string server;
  std::string detail;

  std::string to_string() const;
};

/// Minimal expected-style result carrier: exactly one of a value or a
/// PredictionError. value()/error() on the wrong alternative throw
/// std::logic_error — misuse is a caller bug, not a served failure.
template <typename T>
class Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}                  // NOLINT
  Expected(PredictionError error) : state_(std::move(error)) {}    // NOLINT

  bool ok() const noexcept { return std::holds_alternative<T>(state_); }

  const T& value() const {
    if (!ok()) throw std::logic_error("Expected: value() on an error");
    return std::get<T>(state_);
  }
  const PredictionError& error() const {
    if (ok()) throw std::logic_error("Expected: error() on a value");
    return std::get<PredictionError>(state_);
  }

 private:
  std::variant<T, PredictionError> state_;
};

/// A served prediction plus its provenance: which method was asked,
/// which answered, and what degradation (fallback / stale) or effort
/// (retries, latency) it took.
struct ResilientResult {
  PredictionResult prediction;
  Method requested = Method::kHistorical;
  Method served_by = Method::kHistorical;
  bool fallback = false;  // served_by differs from requested
  bool stale = false;     // replayed from the engine cache
  int retries = 0;        // transient-failure retries spent
  /// Wall time plus injected virtual latency. Only tracked when a
  /// deadline, batch budget or latency injection is armed; 0 otherwise
  /// (the fast path reads no clocks).
  double latency_s = 0.0;
};

using Outcome = Expected<ResilientResult>;
using CapacityOutcome = Expected<core::CapacityResult>;

/// A request's degradation chain: the requested method, then (when
/// fallback is enabled) every method after it in the order lqn -> hybrid
/// -> historical. Allocation-free; the serving path builds one per
/// request and the EPP-SEM-020 chain verifier walks the same one.
struct FallbackChain {
  std::array<Method, 3> methods;
  std::size_t count;

  const Method* begin() const noexcept { return methods.data(); }
  const Method* end() const noexcept { return methods.data() + count; }
};

FallbackChain fallback_chain(Method requested, bool fallback_enabled);

struct ResilienceOptions {
  /// Per-request deadline in seconds; 0 disables (and removes all clock
  /// reads from the serving path).
  double deadline_s = 0.0;
  /// Retries for *transient* failures only (injected faults). Solver
  /// divergence and calibration gaps are deterministic and never retried.
  int max_retries = 2;
  double backoff_base_s = 0.0005;
  double backoff_cap_s = 0.010;
  /// Seed for backoff jitter (tools pass calib::kRetryJitterSeed).
  std::uint64_t jitter_seed = 0xB0FFC0DEULL;
  /// When the whole chain fails, replay the engine cache's answer for the
  /// request's quantized workload from the first method of the chain
  /// that has one (flagged stale). The engine cache is the only store, so
  /// its capacity bounds what can be replayed.
  bool serve_stale = true;
  /// Degrade lqn -> hybrid -> historical when the requested method fails.
  bool fallback_enabled = true;
};

/// Aggregate counters since construction.
struct ResilienceStats {
  std::uint64_t requests = 0;
  std::uint64_t served = 0;
  std::uint64_t errors = 0;           // outcomes returned as errors
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;        // served by a non-requested method
  std::uint64_t stale_serves = 0;
  std::uint64_t deadline_hits = 0;
};

class ResilientPredictor {
 public:
  /// Non-owning: the engine (and its predictors) must outlive this.
  explicit ResilientPredictor(const BatchPredictor& engine,
                              ResilienceOptions options = {});

  /// Serve one request through validation, the retry loop, the fallback
  /// chain and stale replay. Never throws on request failure.
  /// Thread-safe.
  Outcome predict(const PredictionRequest& request) const;

  /// Serve one request under a caller-supplied deadline that overrides
  /// options().deadline_s for this call only — the serving daemon maps
  /// per-request protocol deadlines through here onto the same
  /// cancellation machinery batch budgets use. deadline_s <= 0 falls back
  /// to the configured deadline.
  Outcome predict_with_deadline(const PredictionRequest& request,
                                double deadline_s) const;

  /// Serve every request (fanned out on `pool` when given). When
  /// batch_budget_s > 0 the whole batch shares that budget on top of the
  /// per-request deadline; requests that never start once it expires
  /// return kDeadlineExceeded. Results align with input order.
  std::vector<Outcome> predict_batch(
      const std::vector<PredictionRequest>& requests,
      util::ThreadPool* pool = nullptr, double batch_budget_s = 0.0) const;

  /// SLA capacity probe with the configured deadline and typed errors;
  /// no fallback chain (capacity is a per-method question).
  CapacityOutcome max_clients_for_goal(Method method,
                                       const std::string& server,
                                       double goal_s,
                                       double buy_fraction = 0.0,
                                       double think_time_s = 7.0) const;

  ResilienceStats stats() const;

  const ResilienceOptions& options() const noexcept { return options_; }
  const BatchPredictor& engine() const noexcept { return engine_; }

 private:
  Outcome serve(const PredictionRequest& request,
                const util::CancellationToken* budget) const;

  double next_backoff_s(int attempt) const;

  const BatchPredictor& engine_;
  ResilienceOptions options_;

  mutable std::atomic<std::uint64_t> jitter_counter_{0};

  struct Counters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> fallbacks{0};
    std::atomic<std::uint64_t> stale_serves{0};
    std::atomic<std::uint64_t> deadline_hits{0};
  };
  mutable Counters counters_;
};

}  // namespace epp::svc
