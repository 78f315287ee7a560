// Batch prediction engine: a facade over the three calibrated predictors
// (historical / layered queuing / hybrid) that evaluates vectors of
// prediction requests concurrently on epp::util::ThreadPool and memoizes
// results in a sharded LRU PredictionCache.
//
// The engine exists for the paper's capacity-planning workload: a
// resource manager comparing candidate servers issues a full client-load
// x buy-mix x method grid of predictions per decision, most of which
// repeat across decisions. Requests are pure once the predictors are
// calibrated, so each (method, server, quantized workload) triple is
// computed once and served from the cache afterwards.
//
// Quantization contract: a request is evaluated *at its quantized
// workload* (client counts snapped to whole clients, think time to
// 10 ms), which is exactly the cache key — so a cache hit is
// bit-identical to the fresh computation it memoizes.
//
// Failure channel: the engine is the one place below the wire where a
// core exception becomes an ErrorCode. predict() never throws on a
// failed request; the result carries the code and the exception's text.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/predictor.hpp"
#include "core/trade_model.hpp"
#include "svc/fault.hpp"
#include "svc/prediction_cache.hpp"
#include "util/thread_pool.hpp"

namespace epp::svc {

/// One cell of a prediction sweep: which method to ask, about which
/// server, under which workload.
struct PredictionRequest {
  Method method = Method::kHistorical;
  std::string server;
  core::WorkloadSpec workload;
};

/// Failure taxonomy for predictions. Codes are contractual (the sweep
/// tool prints them, the wire carries them, tests assert on them); see
/// DESIGN.md. The numbers are the wire's error_code byte: a retired code
/// keeps its number unused (3 was circuit-open).
enum class ErrorCode {
  kNotCalibrated = 0,     // unknown server / method not supplied
  kSolverDiverged = 1,    // analytic solver refused its clamped iterate
  kDeadlineExceeded = 2,  // per-request deadline or batch budget exhausted
  kInvalidWorkload = 4,   // workload failed boundary validation
  kTransientFailure = 5,  // transient fault persisted through all retries
  kInternal = 6,          // anything else (bug shield, never expected)
  kOverloaded = 7,        // admission control shed the request (epp_serve)
};

std::string_view error_code_name(ErrorCode code);

struct PredictionResult {
  double mean_rt_s = 0.0;
  double throughput_rps = 0.0;
  bool cached = false;  // answered from the memoization cache
  /// Set when this request failed (the values above are then
  /// meaningless); `error` then holds the failure's text.
  std::optional<ErrorCode> code;
  std::string error;

  bool ok() const noexcept { return !code.has_value(); }

  static PredictionResult failure(ErrorCode failed_with, std::string text) {
    PredictionResult result;
    result.code = failed_with;
    result.error = std::move(text);
    return result;
  }
};

/// Classify the exception in flight into a failed result carrying its
/// code and what() text. Call only from inside a catch block. The single
/// exception-to-ErrorCode mapping in src/svc.
PredictionResult map_active_exception();

struct BatchOptions {
  std::size_t cache_capacity_per_shard = 4096;  // must be positive
  std::size_t cache_shards = 16;
  /// Deterministic fault injection at the evaluation boundary (non-owning;
  /// see svc/fault.hpp). Consulted on cache misses only: a hit replays a
  /// result that was already computed, which cannot fail. The resilient
  /// wrapper reads the same injector for its latency stream.
  const FaultInjector* fault = nullptr;
};

class BatchPredictor {
 public:
  /// Non-owning: the predictors must outlive the engine. Pass nullptr for
  /// methods that are not calibrated; requesting one fails with
  /// kNotCalibrated. Throws std::invalid_argument on a zero cache capacity.
  BatchPredictor(const core::Predictor* historical, const core::Predictor* lqn,
                 const core::Predictor* hybrid, BatchOptions options = {});

  /// Single cache-aware evaluation. Thread-safe. Never throws on a
  /// failed request: a malformed workload (kInvalidWorkload), a missing
  /// method (kNotCalibrated), an injector hit (kTransientFailure), a
  /// cancelled solve (kDeadlineExceeded) and whatever the predictor
  /// throws come back as a failed result.
  PredictionResult predict(const PredictionRequest& request) const;

  /// Evaluate every request — fanned out on `pool` when given, serially
  /// otherwise. Results align with the input order; a failed request
  /// fills only its own slot.
  std::vector<PredictionResult> predict_batch(
      const std::vector<PredictionRequest>& requests,
      util::ThreadPool* pool = nullptr) const;

  /// The cached answer predict(request) would replay now, if any. A
  /// probe for routing and stale replay: counts no hit or miss, touches
  /// no LRU order.
  std::optional<CachedPrediction> peek(const PredictionRequest& request) const {
    return cache_.peek(cache_key(request));
  }

  /// The workload a request is actually evaluated at (the cache-key grid).
  core::WorkloadSpec quantized(const core::WorkloadSpec& workload) const;

  /// The underlying predictor for a method; throws std::invalid_argument
  /// when that method was not supplied.
  const core::Predictor& predictor_for(Method method) const;

  const BatchOptions& options() const noexcept { return options_; }

  CacheStats cache_stats() const { return cache_.stats(); }

 private:
  /// The cache key a request quantizes to: its method, its server and
  /// its workload on the quantized() grid.
  CacheKey cache_key(const PredictionRequest& request) const;

  const core::Predictor* historical_;
  const core::Predictor* lqn_;
  const core::Predictor* hybrid_;
  BatchOptions options_;
  mutable PredictionCache cache_;
};

}  // namespace epp::svc
