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
// workload* (client counts snapped to quantum_clients, think time to
// quantum_think_s), which is exactly the cache key — so a cache hit is
// bit-identical to the fresh computation it memoizes.
#pragma once

#include <cstddef>
#include <string>
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

struct PredictionResult {
  double mean_rt_s = 0.0;
  double throughput_rps = 0.0;
  bool cached = false;  // answered from the memoization cache
  /// Batch evaluation: non-empty when this request failed (the values
  /// above are then meaningless). Single predict() throws instead.
  std::string error;

  bool ok() const noexcept { return error.empty(); }
};

struct BatchOptions {
  std::size_t cache_capacity_per_shard = 4096;
  std::size_t cache_shards = 16;
  /// Cache-key grid: client counts snap to the nearest multiple of
  /// quantum_clients, think times to quantum_think_s. Must be positive.
  double quantum_clients = 1.0;
  double quantum_think_s = 0.01;
  /// Deterministic fault injection at the evaluation boundary (non-owning;
  /// see svc/fault.hpp). Consulted on cache misses only: a hit replays a
  /// result that was already computed, which cannot fail. The resilient
  /// wrapper reads the same injector for its latency stream.
  const FaultInjector* fault = nullptr;
};

class BatchPredictor {
 public:
  /// Non-owning: the predictors must outlive the engine. Pass nullptr for
  /// methods that are not calibrated; requesting one throws
  /// std::invalid_argument.
  BatchPredictor(const core::Predictor* historical, const core::Predictor* lqn,
                 const core::Predictor* hybrid, BatchOptions options = {});

  /// Single cache-aware evaluation. Thread-safe. Throws
  /// core::InvalidWorkloadError on a malformed workload, InjectedFault
  /// when the configured injector fails the evaluation, and whatever the
  /// underlying predictor throws.
  PredictionResult predict(const PredictionRequest& request) const;

  /// Evaluate every request — fanned out on `pool` when given, serially
  /// otherwise. Results align with the input order. A request that throws
  /// does NOT lose the rest of the batch: its slot carries the error text
  /// (PredictionResult::error) and every other request still completes.
  std::vector<PredictionResult> predict_batch(
      const std::vector<PredictionRequest>& requests,
      util::ThreadPool* pool = nullptr) const;

  /// Whether predict(request) would be answered from the cache now. A
  /// probe for routing: counts no hit or miss, touches no LRU order.
  bool cached(const PredictionRequest& request) const {
    return cache_.contains(cache_key(request));
  }

  /// The workload a request is actually evaluated at (the cache-key grid).
  core::WorkloadSpec quantized(const core::WorkloadSpec& workload) const;

  /// The cache key a request quantizes to. Public so resilience layers
  /// can key auxiliary stores (e.g. stale-result serving) on the exact
  /// same grid the cache uses.
  CacheKey cache_key(const PredictionRequest& request) const;

  /// The underlying predictor for a method; throws std::invalid_argument
  /// when that method was not supplied.
  const core::Predictor& predictor_for(Method method) const;

  const BatchOptions& options() const noexcept { return options_; }

  CacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

 private:
  const core::Predictor* historical_;
  const core::Predictor* lqn_;
  const core::Predictor* hybrid_;
  BatchOptions options_;
  mutable PredictionCache cache_;
};

}  // namespace epp::svc
