#include "svc/batch_predictor.hpp"

#include <cmath>
#include <stdexcept>

#include "core/errors.hpp"
#include "util/cancellation.hpp"

namespace epp::svc {
namespace {

// The cache-key grid: client counts snap to whole clients, think times
// to 10 ms.
constexpr double kQuantumClients = 1.0;
constexpr double kQuantumThinkS = 0.01;

std::int64_t snap(double value, double quantum) {
  return static_cast<std::int64_t>(std::llround(value / quantum));
}

double snapped(double value, double quantum) {
  return static_cast<double>(snap(value, quantum)) * quantum;
}

}  // namespace

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNotCalibrated:
      return "not-calibrated";
    case ErrorCode::kSolverDiverged:
      return "solver-diverged";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kInvalidWorkload:
      return "invalid-workload";
    case ErrorCode::kTransientFailure:
      return "transient-failure";
    case ErrorCode::kInternal:
      return "internal";
    case ErrorCode::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

// Most-derived first: InvalidWorkloadError is an invalid_argument,
// NotCalibratedError an out_of_range, SolverDivergedError and Cancelled
// are runtime_errors.
PredictionResult map_active_exception() {
  try {
    throw;
  } catch (const util::Cancelled& error) {
    return PredictionResult::failure(ErrorCode::kDeadlineExceeded, error.what());
  } catch (const core::InvalidWorkloadError& error) {
    return PredictionResult::failure(ErrorCode::kInvalidWorkload, error.what());
  } catch (const core::SolverDivergedError& error) {
    return PredictionResult::failure(ErrorCode::kSolverDiverged, error.what());
  } catch (const std::invalid_argument& error) {
    // e.g. predictor_for's "no such predictor supplied"
    return PredictionResult::failure(ErrorCode::kNotCalibrated, error.what());
  } catch (const std::out_of_range& error) {  // incl. NotCalibratedError
    return PredictionResult::failure(ErrorCode::kNotCalibrated, error.what());
  } catch (const std::exception& error) {
    return PredictionResult::failure(ErrorCode::kInternal, error.what());
  }
}

BatchPredictor::BatchPredictor(const core::Predictor* historical,
                               const core::Predictor* lqn,
                               const core::Predictor* hybrid,
                               BatchOptions options)
    : historical_(historical),
      lqn_(lqn),
      hybrid_(hybrid),
      options_(options),
      cache_(options.cache_capacity_per_shard, options.cache_shards) {}

const core::Predictor& BatchPredictor::predictor_for(Method method) const {
  const core::Predictor* predictor = nullptr;
  switch (method) {
    case Method::kHistorical:
      predictor = historical_;
      break;
    case Method::kLqn:
      predictor = lqn_;
      break;
    case Method::kHybrid:
      predictor = hybrid_;
      break;
  }
  if (predictor == nullptr)
    throw std::invalid_argument("BatchPredictor: no '" +
                                std::string(method_name(method)) +
                                "' predictor supplied");
  return *predictor;
}

core::WorkloadSpec BatchPredictor::quantized(
    const core::WorkloadSpec& workload) const {
  core::WorkloadSpec q;
  q.browse_clients = snapped(workload.browse_clients, kQuantumClients);
  q.buy_clients = snapped(workload.buy_clients, kQuantumClients);
  q.think_time_s = snapped(workload.think_time_s, kQuantumThinkS);
  return q;
}

CacheKey BatchPredictor::cache_key(const PredictionRequest& request) const {
  CacheKey key;
  key.method = request.method;
  key.server = request.server;
  key.browse_q = snap(request.workload.browse_clients, kQuantumClients);
  key.buy_q = snap(request.workload.buy_clients, kQuantumClients);
  key.think_q = snap(request.workload.think_time_s, kQuantumThinkS);
  return key;
}

PredictionResult BatchPredictor::predict(
    const PredictionRequest& request) const try {
  if (std::string error = core::workload_error(request.workload);
      !error.empty())
    return PredictionResult::failure(ErrorCode::kInvalidWorkload,
                                     std::move(error));
  const CacheKey key = cache_key(request);
  if (const auto hit = cache_.lookup(key)) {
    PredictionResult result;
    result.mean_rt_s = hit->mean_rt_s;
    result.throughput_rps = hit->throughput_rps;
    result.cached = true;
    return result;
  }

  const core::Predictor& predictor = predictor_for(request.method);
  // Transient by construction: a retry draws the next sample of the
  // failure stream, which may pass.
  if (options_.fault != nullptr &&
      options_.fault->should_fail(request.method, request.server))
    return PredictionResult::failure(
        ErrorCode::kTransientFailure,
        "injected fault: " + std::string(method_name(request.method)) +
            " on '" + request.server + "'");
  const core::WorkloadSpec workload = quantized(request.workload);
  const core::Prediction fresh = predictor.predict(request.server, workload);
  cache_.insert(key, fresh);
  PredictionResult result;
  result.mean_rt_s = fresh.mean_rt_s;
  result.throughput_rps = fresh.throughput_rps;
  return result;
} catch (...) {
  return map_active_exception();
}

std::vector<PredictionResult> BatchPredictor::predict_batch(
    const std::vector<PredictionRequest>& requests,
    util::ThreadPool* pool) const {
  std::vector<PredictionResult> results(requests.size());
  const auto one = [&](std::size_t i) { results[i] = predict(requests[i]); };
  if (pool != nullptr && requests.size() > 1) {
    pool->parallel_for(requests.size(), one);
  } else {
    for (std::size_t i = 0; i < requests.size(); ++i) one(i);
  }
  return results;
}

}  // namespace epp::svc
