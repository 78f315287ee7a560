#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "util/timer.hpp"

namespace epp::serve {
namespace {

net::ResponseMessage error_response(std::uint64_t id, svc::ErrorCode code,
                                    std::string detail) {
  net::ResponseMessage response;
  response.id = id;
  response.status = 1;
  response.error_code = static_cast<std::uint8_t>(code);
  response.detail = std::move(detail);
  return response;
}

svc::PredictionRequest prediction_request(const net::RequestMessage& request) {
  svc::PredictionRequest prediction;
  prediction.method = static_cast<svc::Method>(request.method);
  prediction.server = request.server;
  prediction.workload.browse_clients = request.browse_clients;
  prediction.workload.buy_clients = request.buy_clients;
  prediction.workload.think_time_s = request.think_time_s;
  return prediction;
}

/// Bytes per slow-loris chunk: small enough that a typical ~70-byte
/// response frame dribbles out over several paced sends.
constexpr std::size_t kDribbleChunk = 16;

}  // namespace

PredictionServer::PredictionServer(BundleRegistry& registry,
                                   ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      drift_(options_.drift) {
  if (options_.workers == 0)
    throw std::invalid_argument("PredictionServer: workers must be >= 1");
  if (options_.queue_capacity == 0)
    throw std::invalid_argument(
        "PredictionServer: queue_capacity must be >= 1");
}

PredictionServer::~PredictionServer() {
  if (started_.load(std::memory_order_acquire)) stop();
}

void PredictionServer::start() {
  if (started_.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error("PredictionServer: started twice");
  listener_ = std::make_unique<net::Listener>(options_.host, options_.port);
  port_ = listener_->port();
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void PredictionServer::request_stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (listener_ != nullptr) listener_->interrupt();
  {
    // Unblock every reader parked in recv: half-close the read sides.
    // Write sides stay open so drained responses still flush.
    const std::lock_guard lock(sessions_mutex_);
    for (SessionHandle& handle : session_threads_)
      if (const SessionPtr session = handle.session.lock())
        session->socket.shutdown_read();
  }
  queue_cv_.notify_all();
}

void PredictionServer::wait() {
  // lifecycle_mutex_ exists precisely to park concurrent wait()/stop()
  // callers while the first one joins; blocking under it is the point.
  const std::lock_guard lifecycle(lifecycle_mutex_);
  if (joined_.load(std::memory_order_acquire)) return;
  // epp-lint: ignore(EPP-CONC-003) serialized join is this lock's purpose
  if (accept_thread_.joinable()) accept_thread_.join();
  reap_sessions(/*all=*/true);
  // Readers are gone: nothing can be admitted any more. Let the workers
  // finish what was queued, then stop. The flag is stored under the queue
  // lock: a worker that has checked its wait predicate but not yet blocked
  // still holds that lock, so the store cannot slip in between and the
  // notification below cannot be lost.
  {
    const std::lock_guard lock(queue_mutex_);
    workers_stop_.store(true, std::memory_order_release);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_)
    // epp-lint: ignore(EPP-CONC-003) serialized join is this lock's purpose
    if (worker.joinable()) worker.join();
  joined_.store(true, std::memory_order_release);
}

void PredictionServer::stop() {
  request_stop();
  wait();
}

void PredictionServer::accept_loop() {
  while (!stopping()) {
    reap_sessions(/*all=*/false);
    std::optional<net::Socket> accepted;
    try {
      accepted = listener_->accept();
    } catch (const net::SocketError&) {
      break;  // listener died; shut the server down
    }
    if (!accepted) break;  // interrupted
    if (options_.chaos != nullptr && options_.chaos->reset_on_accept()) {
      accepted->reset();
      continue;  // the destructor's close fires the RST
    }
    if (open_sessions_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      counters_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
      continue;  // socket closes as `accepted` goes out of scope
    }
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    auto session = std::make_shared<Session>();
    session->socket = std::move(*accepted);
    auto done = std::make_shared<std::atomic<bool>>(false);
    open_sessions_.fetch_add(1, std::memory_order_acq_rel);
    std::thread reader([this, session, done] {
      session_loop(session);
      open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
      done->store(true, std::memory_order_release);
    });
    const std::lock_guard lock(sessions_mutex_);
    session_threads_.push_back(
        SessionHandle{std::move(reader), std::move(done), session});
  }
}

void PredictionServer::reap_sessions(bool all) {
  std::list<SessionHandle> to_join;
  {
    const std::lock_guard lock(sessions_mutex_);
    for (auto it = session_threads_.begin(); it != session_threads_.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        to_join.splice(to_join.end(), session_threads_, it++);
      } else {
        ++it;
      }
    }
  }
  for (SessionHandle& handle : to_join)
    if (handle.thread.joinable()) handle.thread.join();
}

void PredictionServer::session_loop(SessionPtr session) {
  if (options_.chaos != nullptr) {
    // Accept-time stall: the session exists but its first read waits, as
    // it would behind a loaded accept queue.
    const double delay = options_.chaos->accept_delay_s();
    if (delay > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
  if (options_.idle_timeout_s > 0.0)
    session->socket.set_recv_timeout(options_.idle_timeout_s);

  std::vector<std::uint8_t> payload;
  while (!stopping()) {
    bool got = false;
    try {
      got = net::read_frame(session->socket, payload);
    } catch (const net::SocketTimeout&) {
      counters_.idle_closes.fetch_add(1, std::memory_order_relaxed);
      break;  // silent client; reclaim the reader thread
    } catch (const std::exception&) {
      counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      break;  // framing is lost; the only safe move is to close
    }
    if (!got) break;  // peer closed
    counters_.frames_received.fetch_add(1, std::memory_order_relaxed);

    net::RequestMessage request;
    try {
      request = net::decode_request(payload);
    } catch (const net::FrameError& error) {
      counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      write_response(*session, error_response(0, svc::ErrorCode::kInternal,
                                              error.what()));
      break;  // desynchronized stream; close
    }

    if (request.kind != net::MessageKind::kPredict &&
        request.kind != net::MessageKind::kObserve) {
      handle_control(*session, request);
      continue;
    }

    if (stopping()) {
      write_response(*session,
                     error_response(request.id, svc::ErrorCode::kOverloaded,
                                    "server is draining"));
      break;
    }

    // Version pinning happens here, at admission: this request will be
    // served by exactly this registry version, even if a promotion
    // lands while it waits in the queue.
    std::shared_ptr<const ServingVersion> pinned = registry_.active();
    if (pinned == nullptr) {
      write_response(*session,
                     error_response(request.id, svc::ErrorCode::kNotCalibrated,
                                    "no active bundle version"));
      continue;
    }

    // A cached answer takes microseconds, less than handing the request
    // to a worker and back. Answer it here with the same evaluate and
    // write a worker runs. Misses, observes and methods whose breaker is
    // not closed queue as below.
    if (request.kind == net::MessageKind::kPredict &&
        request.method <= static_cast<std::uint8_t>(svc::Method::kHybrid) &&
        pinned->resilient->answers_from_cache(prediction_request(request))) {
      counters_.requests_enqueued.fetch_add(1, std::memory_order_relaxed);
      counters_.served_inline.fetch_add(1, std::memory_order_relaxed);
      serve(*session, request, *pinned);
      continue;
    }

    // Admission control: bounded queue, shed-on-full with a typed error
    // — overload turns into fast failures, never an unbounded backlog.
    bool admitted = false;
    {
      const std::lock_guard lock(queue_mutex_);
      if (queue_.size() < options_.queue_capacity) {
        queue_.push_back(
            WorkItem{session, std::move(request), std::move(pinned)});
        const std::size_t depth = queue_.size();
        std::size_t peak = counters_.queue_peak.load(std::memory_order_relaxed);
        while (depth > peak &&
               !counters_.queue_peak.compare_exchange_weak(
                   peak, depth, std::memory_order_relaxed)) {
        }
        admitted = true;
      }
    }
    if (admitted) {
      counters_.requests_enqueued.fetch_add(1, std::memory_order_relaxed);
      queue_cv_.notify_one();
    } else {
      counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
      write_response(*session,
                     error_response(request.id, svc::ErrorCode::kOverloaded,
                                    "dispatch queue full (" +
                                        std::to_string(options_.queue_capacity) +
                                        " deep); request shed"));
    }
  }
}

void PredictionServer::worker_loop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() ||
               workers_stop_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        if (workers_stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (options_.worker_delay_s > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.worker_delay_s));
    serve(*item.session, item.request, *item.pinned);
  }
}

void PredictionServer::serve(Session& session,
                             const net::RequestMessage& request,
                             const ServingVersion& version) {
  net::ResponseMessage response = evaluate(request, version);
  if (request.kind == net::MessageKind::kObserve && response.ok()) {
    drift_track_version(version.version);
    drift_.observe(response.mean_rt_s, request.observed_rt_s);
  }
  response.health = static_cast<std::uint8_t>(drift_.state());
  write_response(session, response);
  counters_.requests_served.fetch_add(1, std::memory_order_relaxed);
}

net::ResponseMessage PredictionServer::evaluate(
    const net::RequestMessage& request, const ServingVersion& version) {
  if (request.method > static_cast<std::uint8_t>(svc::Method::kHybrid))
    return error_response(request.id, svc::ErrorCode::kInvalidWorkload,
                          "unknown method byte " +
                              std::to_string(request.method));
  double deadline_s = request.deadline_ms / 1e3;
  if (options_.max_request_deadline_s > 0.0)
    deadline_s = std::min(deadline_s, options_.max_request_deadline_s);
  else
    deadline_s = 0.0;

  const util::Timer timer;
  const svc::Outcome outcome =
      version.resilient->predict_with_deadline(prediction_request(request),
                                               deadline_s);
  const double predictor_latency_s = timer.elapsed_seconds();

  net::ResponseMessage response;
  response.id = request.id;
  response.bundle_version = version.version;
  response.predictor_latency_s = predictor_latency_s;
  if (outcome.ok()) {
    const svc::ResilientResult& result = outcome.value();
    response.served_by = static_cast<std::uint8_t>(result.served_by);
    response.flags = static_cast<std::uint8_t>(
        (result.fallback ? net::kFlagFallback : 0) |
        (result.stale ? net::kFlagStale : 0) |
        (result.prediction.cached ? net::kFlagCached : 0));
    response.retries = static_cast<std::uint32_t>(result.retries);
    response.mean_rt_s = result.prediction.mean_rt_s;
    response.throughput_rps = result.prediction.throughput_rps;
  } else {
    response.status = 1;
    response.error_code = static_cast<std::uint8_t>(outcome.error().code);
    response.detail = outcome.error().detail;
  }
  return response;
}

void PredictionServer::drift_track_version(std::uint64_t version) {
  std::uint64_t seen = drift_version_.load(std::memory_order_acquire);
  while (seen != version)
    if (drift_version_.compare_exchange_weak(seen, version,
                                             std::memory_order_acq_rel)) {
      drift_.reset();  // new bundle: its error history starts clean
      return;
    }
}

void PredictionServer::handle_control(Session& session,
                                      const net::RequestMessage& request) {
  net::ResponseMessage response;
  response.id = request.id;
  response.bundle_version = registry_.active_version();
  response.health = static_cast<std::uint8_t>(drift_.state());
  switch (request.kind) {
    case net::MessageKind::kPing:
      break;  // an empty ok response is the pong
    case net::MessageKind::kStats: {
      const ServerStats server_stats = stats();
      const RegistryStats registry_stats = registry_.stats();
      const DriftSnapshot drift_stats = drift_.snapshot();
      std::ostringstream text;
      text << "connections_accepted=" << server_stats.connections_accepted
           << " requests_enqueued=" << server_stats.requests_enqueued
           << " requests_served=" << server_stats.requests_served
           << " served_inline=" << server_stats.served_inline
           << " requests_shed=" << server_stats.requests_shed
           << " queue_depth=" << server_stats.queue_depth
           << " queue_peak=" << server_stats.queue_peak
           << " open_sessions=" << server_stats.open_sessions
           << " idle_closes=" << server_stats.idle_closes
           << " bundle_version=" << registry_stats.active_version
           << " promotions=" << registry_stats.promotions
           << " rejections=" << registry_stats.rejections
           << " health=" << health_state_name(drift_stats.state)
           << " drift_observations=" << drift_stats.observations
           << " drift_trips=" << drift_stats.trips;
      if (const auto active = registry_.active(); active != nullptr) {
        const svc::ResilienceStats resilience = active->resilient->stats();
        const svc::CacheStats cache = active->resilient->engine().cache_stats();
        text << " served=" << resilience.served
             << " errors=" << resilience.errors
             << " fallbacks=" << resilience.fallbacks
             << " stale_serves=" << resilience.stale_serves
             << " cache_entries=" << cache.entries
             << " cache_evictions=" << cache.evictions
             << " deadline_hits=" << resilience.deadline_hits
             << " breaker_opens=" << resilience.breaker_opens;
      }
      if (options_.chaos != nullptr) {
        const net::ChaosStats chaos = options_.chaos->stats();
        text << " chaos_accept_resets=" << chaos.accept_resets
             << " chaos_accept_delays=" << chaos.accept_delays
             << " chaos_write_resets=" << chaos.write_resets
             << " chaos_write_truncates=" << chaos.write_truncates
             << " chaos_dribbled_writes=" << chaos.dribbled_writes;
      }
      response.detail = text.str();
      break;
    }
    case net::MessageKind::kReload: {
      ReloadStatus reload;
      if (!options_.reload_handler) {
        reload.message = "reload unsupported: no reload handler configured";
      } else {
        try {
          reload = options_.reload_handler(request.server);
        } catch (const std::exception& error) {
          reload.ok = false;
          reload.message = error.what();
        }
      }
      if (reload.ok) {
        counters_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
        // The promotion may have changed the active
        // version; the drift history belongs to the old one.
        drift_track_version(registry_.active_version());
      } else {
        counters_.reloads_failed.fetch_add(1, std::memory_order_relaxed);
        response.status = 1;
        response.error_code =
            static_cast<std::uint8_t>(svc::ErrorCode::kInternal);
      }
      response.bundle_version = registry_.active_version();
      response.detail = reload.message;
      break;
    }
    case net::MessageKind::kShutdown:
      response.detail = "draining";
      write_response(session, response);
      request_stop();
      return;
    case net::MessageKind::kPredict:
    case net::MessageKind::kObserve:
      return;  // unreachable; work frames never land here
  }
  write_response(session, response);
}

void PredictionServer::write_response(Session& session,
                                      const net::ResponseMessage& response) {
  if (session.dead.load(std::memory_order_acquire)) {
    counters_.responses_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::vector<std::uint8_t> payload = net::encode_response(response);
  const std::lock_guard lock(session.write_mutex);
  const net::ChaosPolicy* chaos = options_.chaos;
  bool wrote = false;
  try {
    const net::WriteFault fault = chaos != nullptr
                                      ? chaos->next_write_fault()
                                      : net::WriteFault::kNone;
    if (fault == net::WriteFault::kReset) {
      // Injected fault, not a peer failure: the session dies by design
      // and is not counted in responses_dropped (the chaos counters
      // record it).
      session.socket.reset();
      session.dead.store(true, std::memory_order_release);
      return;
    }
    if (fault == net::WriteFault::kTruncate) {
      const std::vector<std::uint8_t> wire = net::frame_wire(payload);
      (void)session.socket.send_all(wire.data(), wire.size() / 2);
      session.socket.reset();
      session.dead.store(true, std::memory_order_release);
      return;
    }
    if (chaos != nullptr && chaos->dribble_writes()) {
      const std::vector<std::uint8_t> wire = net::frame_wire(payload);
      wrote = true;
      for (std::size_t offset = 0; wrote && offset < wire.size();
           offset += kDribbleChunk) {
        const double pause = chaos->dribble_pause_s();
        if (pause > 0.0)
          // epp-lint: ignore(EPP-CONC-003) slow-loris chaos paces sends on purpose
          std::this_thread::sleep_for(std::chrono::duration<double>(pause));
        wrote = session.socket.send_all(
            wire.data() + offset, std::min(kDribbleChunk, wire.size() - offset));
      }
      if (wrote) chaos->count_dribbled_write();
    } else {
      wrote = net::write_frame(session.socket, payload);
    }
  } catch (const std::exception&) {
    wrote = false;
  }
  if (!wrote) {
    session.dead.store(true, std::memory_order_release);
    counters_.responses_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

ServerStats PredictionServer::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  stats.connections_rejected =
      counters_.connections_rejected.load(std::memory_order_relaxed);
  stats.frames_received =
      counters_.frames_received.load(std::memory_order_relaxed);
  stats.requests_enqueued =
      counters_.requests_enqueued.load(std::memory_order_relaxed);
  stats.requests_served =
      counters_.requests_served.load(std::memory_order_relaxed);
  stats.served_inline = counters_.served_inline.load(std::memory_order_relaxed);
  stats.requests_shed =
      counters_.requests_shed.load(std::memory_order_relaxed);
  stats.bad_frames = counters_.bad_frames.load(std::memory_order_relaxed);
  stats.responses_dropped =
      counters_.responses_dropped.load(std::memory_order_relaxed);
  stats.idle_closes = counters_.idle_closes.load(std::memory_order_relaxed);
  stats.reloads_ok = counters_.reloads_ok.load(std::memory_order_relaxed);
  stats.reloads_failed =
      counters_.reloads_failed.load(std::memory_order_relaxed);
  {
    const std::lock_guard lock(queue_mutex_);
    stats.queue_depth = queue_.size();
  }
  stats.queue_peak = counters_.queue_peak.load(std::memory_order_relaxed);
  stats.open_sessions = open_sessions_.load(std::memory_order_acquire);
  return stats;
}

}  // namespace epp::serve
