#include "svc/resilient.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "svc/fault.hpp"
#include "util/rng.hpp"

namespace epp::svc {
namespace {

using Clock = util::CancellationToken::Clock;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Degradation order: the most structured model falls back to the next
/// cheaper one. The requested method starts the chain; methods *after*
/// it in this order complete it.
constexpr std::array<Method, 3> kFallbackOrder = {
    Method::kLqn, Method::kHybrid, Method::kHistorical};

bool is_retryable(ErrorCode code) {
  return code == ErrorCode::kTransientFailure;
}

}  // namespace

FallbackChain fallback_chain(Method requested, bool fallback_enabled) {
  FallbackChain chain{{requested, requested, requested}, 1};
  if (!fallback_enabled) return chain;
  const auto it =
      std::find(kFallbackOrder.begin(), kFallbackOrder.end(), requested);
  if (it != kFallbackOrder.end())
    for (auto next = it + 1; next != kFallbackOrder.end(); ++next)
      chain.methods[chain.count++] = *next;
  return chain;
}

std::string PredictionError::to_string() const {
  return std::string(error_code_name(code)) + " [" +
         std::string(method_name(method)) + "/" + server + "]: " + detail;
}

ResilientPredictor::ResilientPredictor(const BatchPredictor& engine,
                                       ResilienceOptions options)
    : engine_(engine), options_(options) {
  if (options_.max_retries < 0)
    throw std::invalid_argument("ResilientPredictor: max_retries < 0");
  if (!(options_.deadline_s >= 0.0) || !(options_.backoff_base_s >= 0.0) ||
      !(options_.backoff_cap_s >= 0.0))
    throw std::invalid_argument(
        "ResilientPredictor: durations must be finite and non-negative");
}

double ResilientPredictor::next_backoff_s(int attempt) const {
  const double uncapped =
      options_.backoff_base_s * std::pow(2.0, static_cast<double>(attempt));
  const double capped = std::min(uncapped, options_.backoff_cap_s);
  // Seeded jitter in [0.5, 1.0] x backoff — deterministic per draw index.
  const std::uint64_t draw =
      jitter_counter_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state =
      options_.jitter_seed ^ ((draw + 1) * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t bits = util::splitmix64(state);
  const double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return capped * (0.5 + 0.5 * unit);
}

Outcome ResilientPredictor::predict(const PredictionRequest& request) const {
  return serve(request, nullptr);
}

Outcome ResilientPredictor::predict_with_deadline(
    const PredictionRequest& request, double deadline_s) const {
  if (deadline_s <= 0.0) return serve(request, nullptr);
  const auto token = util::CancellationToken::after(deadline_s);
  return serve(request, &token);
}

Outcome ResilientPredictor::serve(const PredictionRequest& request,
                                  const util::CancellationToken* budget) const {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);

  // Reject malformed workloads before they can touch retries or the
  // fallback chain — they are invalid for every method alike.
  if (std::string error = core::workload_error(request.workload);
      !error.empty()) {
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    return PredictionError{ErrorCode::kInvalidWorkload, request.method,
                           request.server, std::move(error)};
  }

  const FaultInjector* injector = engine_.options().fault;
  const bool has_deadline = options_.deadline_s > 0.0;
  const bool track_time = has_deadline || budget != nullptr ||
                          (injector != nullptr && injector->config().any());
  const auto start = track_time ? Clock::now() : Clock::time_point{};
  double virtual_s = 0.0;  // injected latency, charged against deadlines

  // Seconds of budget left across the per-request deadline and the batch
  // budget, net of virtual latency already charged. +inf when untimed.
  const auto remaining_s = [&]() -> double {
    double remaining = kInfinity;
    if (has_deadline)
      remaining = options_.deadline_s - seconds_since(start) - virtual_s;
    if (budget != nullptr) {
      if (budget->cancelled()) return std::min(remaining, 0.0);
      if (budget->has_deadline())
        remaining = std::min(
            remaining,
            std::chrono::duration<double>(budget->deadline() - Clock::now())
                    .count() -
                virtual_s);
    }
    return remaining;
  };

  const FallbackChain chain =
      fallback_chain(request.method, options_.fallback_enabled);

  std::optional<PredictionError> primary_error;
  int total_retries = 0;
  bool deadline_hit = false;

  PredictionRequest fallback_request;  // built only when degrading
  for (std::size_t ci = 0; ci < chain.count && !deadline_hit; ++ci) {
    const Method method = chain.methods[ci];
    const PredictionRequest* attempt_request = &request;
    if (method != request.method) {
      fallback_request = request;
      fallback_request.method = method;
      attempt_request = &fallback_request;
    }

    for (int attempt = 0;; ++attempt) {
      double remaining = remaining_s();
      if (remaining <= 0.0) {
        deadline_hit = true;
        break;
      }
      if (injector != nullptr &&
          injector->config().for_method(method).latency_s > 0.0) {
        virtual_s += injector->injected_latency_s(method, request.server);
        remaining = remaining_s();
        if (remaining <= 0.0) {
          deadline_hit = true;
          break;
        }
      }

      PredictionResult prediction;
      if (std::isinf(remaining)) {
        prediction = engine_.predict(*attempt_request);
      } else {
        const auto token = util::CancellationToken::after(remaining);
        const util::CancellationScope scope(&token);
        prediction = engine_.predict(*attempt_request);
      }
      if (prediction.ok()) {
        ResilientResult result;
        result.prediction = prediction;
        result.requested = request.method;
        result.served_by = method;
        result.fallback = ci > 0;
        result.retries = total_retries;
        if (track_time) result.latency_s = seconds_since(start) + virtual_s;

        counters_.served.fetch_add(1, std::memory_order_relaxed);
        if (result.fallback)
          counters_.fallbacks.fetch_add(1, std::memory_order_relaxed);
        return result;
      }

      const PredictionError error{*prediction.code, method, request.server,
                                  std::move(prediction.error)};
      if (error.code == ErrorCode::kDeadlineExceeded) {
        deadline_hit = true;
        break;
      }
      if (!primary_error) primary_error = error;

      if (is_retryable(error.code) && attempt < options_.max_retries) {
        ++total_retries;
        counters_.retries.fetch_add(1, std::memory_order_relaxed);
        const double backoff = next_backoff_s(attempt);
        if (backoff > 0.0) {
          const double nap =
              std::isinf(remaining) ? backoff : std::min(backoff, remaining);
          if (nap > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(nap));
        }
        continue;
      }
      break;  // exhausted or non-retryable: next method in the chain
    }
  }

  if (deadline_hit) counters_.deadline_hits.fetch_add(1, std::memory_order_relaxed);

  // Last resort: replay the engine cache's answer for this quantized
  // workload, from the first method of the chain that has one, clearly
  // flagged. A peek: the replay counts no cache hit.
  if (options_.serve_stale) {
    fallback_request = request;
    for (const Method method : chain) {
      fallback_request.method = method;
      const std::optional<CachedPrediction> hit =
          engine_.peek(fallback_request);
      if (!hit) continue;
      ResilientResult result;
      result.prediction.mean_rt_s = hit->mean_rt_s;
      result.prediction.throughput_rps = hit->throughput_rps;
      result.requested = request.method;
      result.served_by = method;
      result.fallback = method != request.method;
      result.stale = true;
      result.retries = total_retries;
      if (track_time) result.latency_s = seconds_since(start) + virtual_s;
      counters_.served.fetch_add(1, std::memory_order_relaxed);
      counters_.stale_serves.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
  }

  counters_.errors.fetch_add(1, std::memory_order_relaxed);
  if (deadline_hit)
    return PredictionError{ErrorCode::kDeadlineExceeded, request.method,
                           request.server,
                           "deadline exceeded serving " +
                               std::string(method_name(request.method)) + "/" +
                               request.server};
  if (primary_error) return *primary_error;
  return PredictionError{ErrorCode::kInternal, request.method, request.server,
                         "no method attempted"};
}

std::vector<Outcome> ResilientPredictor::predict_batch(
    const std::vector<PredictionRequest>& requests, util::ThreadPool* pool,
    double batch_budget_s) const {
  std::optional<util::CancellationToken> budget;
  if (batch_budget_s > 0.0)
    budget.emplace(Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(batch_budget_s)));
  const util::CancellationToken* budget_ptr = budget ? &*budget : nullptr;

  std::vector<std::optional<Outcome>> slots(requests.size());
  const auto evaluate = [&](std::size_t i) {
    slots[i] = serve(requests[i], budget_ptr);
  };
  if (pool != nullptr && requests.size() > 1) {
    pool->parallel_for(requests.size(), evaluate, budget_ptr);
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (budget_ptr != nullptr && budget_ptr->cancelled()) break;
      evaluate(i);
    }
  }

  std::vector<Outcome> outcomes;
  outcomes.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (slots[i]) {
      outcomes.push_back(std::move(*slots[i]));
      continue;
    }
    // Never started: the batch budget expired first.
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    counters_.deadline_hits.fetch_add(1, std::memory_order_relaxed);
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    outcomes.push_back(PredictionError{
        ErrorCode::kDeadlineExceeded, requests[i].method, requests[i].server,
        "batch budget exhausted before the request started"});
  }
  return outcomes;
}

CapacityOutcome ResilientPredictor::max_clients_for_goal(
    Method method, const std::string& server, double goal_s,
    double buy_fraction, double think_time_s) const {
  counters_.requests.fetch_add(1, std::memory_order_relaxed);
  try {
    core::CapacityResult result;
    if (options_.deadline_s > 0.0) {
      const auto token = util::CancellationToken::after(options_.deadline_s);
      const util::CancellationScope scope(&token);
      result = engine_.predictor_for(method).max_clients_for_goal(
          server, goal_s, buy_fraction, think_time_s);
    } else {
      result = engine_.predictor_for(method).max_clients_for_goal(
          server, goal_s, buy_fraction, think_time_s);
    }
    counters_.served.fetch_add(1, std::memory_order_relaxed);
    return result;
  } catch (...) {
    PredictionResult failed = map_active_exception();
    if (*failed.code == ErrorCode::kDeadlineExceeded)
      counters_.deadline_hits.fetch_add(1, std::memory_order_relaxed);
    counters_.errors.fetch_add(1, std::memory_order_relaxed);
    return PredictionError{*failed.code, method, server,
                           std::move(failed.error)};
  }
}

ResilienceStats ResilientPredictor::stats() const {
  ResilienceStats stats;
  stats.requests = counters_.requests.load(std::memory_order_relaxed);
  stats.served = counters_.served.load(std::memory_order_relaxed);
  stats.errors = counters_.errors.load(std::memory_order_relaxed);
  stats.retries = counters_.retries.load(std::memory_order_relaxed);
  stats.fallbacks = counters_.fallbacks.load(std::memory_order_relaxed);
  stats.stale_serves = counters_.stale_serves.load(std::memory_order_relaxed);
  stats.deadline_hits = counters_.deadline_hits.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace epp::svc
