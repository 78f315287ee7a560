#include "serve/server.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
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

/// Bytes the loop asks for per read: a burst of request frames.
constexpr std::size_t kReadChunk = 4096;

/// How long the loop leaves the listener out of its poll set after a
/// failed accept (EMFILE, say). A connection left pending would keep the
/// listener readable, and polling it meanwhile would spin the loop.
constexpr std::chrono::milliseconds kAcceptPause{100};

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
  loop_thread_ = std::thread([this] { serve_loop(); });
}

void PredictionServer::request_stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (listener_ != nullptr) listener_->interrupt();  // wakes the loop
  queue_cv_.notify_all();
}

void PredictionServer::wait() {
  // lifecycle_mutex_ exists precisely to park concurrent wait()/stop()
  // callers while the first one joins; blocking under it is the point.
  const std::lock_guard lifecycle(lifecycle_mutex_);
  if (joined_.load(std::memory_order_acquire)) return;
  // epp-lint: ignore(EPP-CONC-003) serialized join is this lock's purpose
  if (loop_thread_.joinable()) loop_thread_.join();
  // The loop is gone: nothing can be admitted any more. Let the workers
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

void PredictionServer::serve_loop() {
  using Clock = std::chrono::steady_clock;
  const auto idle = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::min(options_.idle_timeout_s, 1e6)));
  const bool idle_armed = idle > Clock::duration::zero();
  std::vector<SessionPtr> sessions;
  std::vector<pollfd> fds;
  Clock::time_point accept_paused_until = Clock::time_point::min();
  while (!stopping()) {
    // fds[0] is the wake pipe, fds[1] the listener, then one entry per
    // session; poll skips the fd -1 of a listener paused after a failed
    // accept and of a session whose first read is still deferred. The
    // timeout is the nearest of their timers.
    Clock::time_point now = Clock::now();
    Clock::time_point next_timer = Clock::time_point::max();
    const bool listening = now >= accept_paused_until;
    if (!listening) next_timer = accept_paused_until;
    fds.assign({{listener_->wake_fd(), POLLIN, 0},
                {listening ? listener_->fd() : -1, POLLIN, 0}});
    for (const SessionPtr& session : sessions) {
      const bool due = session->quiet_since <= now;
      fds.push_back({due ? session->socket.fd() : -1, POLLIN, 0});
      if (!due)
        next_timer = std::min(next_timer, session->quiet_since);
      else if (idle_armed)
        next_timer = std::min(next_timer, session->quiet_since + idle);
    }
    int timeout_ms = -1;
    if (next_timer != Clock::time_point::max())
      timeout_ms = static_cast<int>(std::max<Clock::rep>(
          0, std::chrono::ceil<std::chrono::milliseconds>(next_timer - now).count()));
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR)
      request_stop();  // the sessions cannot be waited on; drain
    if (stopping()) break;

    now = Clock::now();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      SessionPtr& session = sessions[i];
      if (fds[i + 2].revents != 0) {
        session->quiet_since = now;
        if (!read_session(session)) session = nullptr;
      } else if (idle_armed && now >= session->quiet_since + idle) {
        counters_.idle_closes.fetch_add(1, std::memory_order_relaxed);
        session = nullptr;  // silent client, or one stalled mid-frame
      }
    }
    std::erase(sessions, nullptr);

    while ((fds[1].revents & POLLIN) != 0 && !stopping()) {
      std::optional<net::Socket> accepted;
      try {
        accepted = listener_->accept(0);
      } catch (const net::SocketError&) {
        // Out of descriptors, say: keep serving the open sessions and
        // try the listener again after the pause.
        counters_.accept_errors.fetch_add(1, std::memory_order_relaxed);
        accept_paused_until = now + kAcceptPause;
        break;
      }
      if (!accepted) break;  // nothing more pending
      if (options_.chaos != nullptr && options_.chaos->reset_on_accept()) {
        accepted->reset();
        continue;  // the destructor's close fires the RST
      }
      if (sessions.size() >= options_.max_connections) {
        counters_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
        continue;  // socket closes as `accepted` goes out of scope
      }
      counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      auto session = std::make_shared<Session>();
      session->socket = std::move(*accepted);
      // Accept-time stall: the session exists but is not read before
      // this time, as it would sit behind a loaded accept queue.
      session->quiet_since = now;
      if (options_.chaos != nullptr)
        session->quiet_since += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(options_.chaos->accept_delay_s()));
      sessions.push_back(std::move(session));
    }
    open_sessions_.store(sessions.size(), std::memory_order_release);
  }
  // Dropping the loop's references leaves each session open until the
  // workers have written its last admitted response.
  sessions.clear();
  open_sessions_.store(0, std::memory_order_release);
}

bool PredictionServer::read_session(const SessionPtr& session) {
  constexpr std::size_t kHeader = net::kLengthPrefixBytes;
  std::vector<std::uint8_t>& inbox = session->inbox;
  std::uint8_t chunk[kReadChunk];
  std::ptrdiff_t got = 0;
  try {
    got = session->socket.recv_some(chunk, sizeof(chunk));
  } catch (const net::SocketError&) {
    counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (got < 0) return true;  // spurious wake-up
  if (got == 0) {
    // EOF (or a reset) between frames is a normal close; inside one the
    // framing is lost.
    if (!inbox.empty()) counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  inbox.insert(inbox.end(), chunk, chunk + got);

  std::size_t offset = 0;
  bool open = true;
  while (open && inbox.size() - offset >= kHeader) {
    std::uint32_t length = 0;
    try {
      length = net::decode_length_prefix(inbox.data() + offset);
    } catch (const net::FrameError&) {
      counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
      return false;  // refused on the prefix alone, payload never awaited
    }
    if (inbox.size() - offset - kHeader < length) break;  // frame incomplete
    const auto begin = inbox.begin() + static_cast<std::ptrdiff_t>(offset + kHeader);
    payload_.assign(begin, begin + length);
    offset += kHeader + length;
    open = handle_frame(session, payload_) &&
           !session->dead.load(std::memory_order_acquire) && !stopping();
  }
  inbox.erase(inbox.begin(), inbox.begin() + static_cast<std::ptrdiff_t>(offset));
  return open;
}

bool PredictionServer::handle_frame(const SessionPtr& session,
                                    const std::vector<std::uint8_t>& payload) {
  counters_.frames_received.fetch_add(1, std::memory_order_relaxed);
  net::RequestMessage request;
  try {
    request = net::decode_request(payload);
  } catch (const net::FrameError& error) {
    counters_.bad_frames.fetch_add(1, std::memory_order_relaxed);
    write_response(*session, error_response(0, svc::ErrorCode::kInternal,
                                            error.what()));
    return false;  // desynchronized stream; close
  }

  if (request.kind == net::MessageKind::kReload) {
    // A bundle load plus the EPP-SEM gate runs on a worker, not the loop.
    enqueue(WorkItem{session, std::move(request), nullptr});
    return true;
  }
  if (request.kind != net::MessageKind::kPredict &&
      request.kind != net::MessageKind::kObserve) {
    handle_control(*session, request);
    return true;
  }

  if (stopping()) {
    write_response(*session,
                   error_response(request.id, svc::ErrorCode::kOverloaded,
                                  "server is draining"));
    return false;
  }

  // Version pinning happens here, at admission: this request will be
  // served by exactly this registry version, even if a promotion
  // lands while it waits in the queue.
  std::shared_ptr<const ServingVersion> pinned = registry_.active();
  if (pinned == nullptr) {
    write_response(*session,
                   error_response(request.id, svc::ErrorCode::kNotCalibrated,
                                  "no active bundle version"));
    return true;
  }

  // A cached answer takes microseconds, less than handing the request
  // to a worker and back. Answer it here with the same evaluate and
  // write a worker runs. Misses and observes queue as below.
  if (request.kind == net::MessageKind::kPredict &&
      request.method <= static_cast<std::uint8_t>(svc::Method::kHybrid) &&
      pinned->resilient->engine().peek(prediction_request(request))) {
    counters_.requests_enqueued.fetch_add(1, std::memory_order_relaxed);
    counters_.served_inline.fetch_add(1, std::memory_order_relaxed);
    serve(*session, request, *pinned);
    return true;
  }

  if (enqueue(WorkItem{session, std::move(request), std::move(pinned)}))
    counters_.requests_enqueued.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PredictionServer::enqueue(WorkItem item) {
  // Admission control: bounded queue, shed-on-full with a typed error
  // — overload turns into fast failures, never an unbounded backlog.
  std::unique_lock lock(queue_mutex_);
  if (queue_.size() < options_.queue_capacity) {
    queue_.push_back(std::move(item));
    const std::size_t depth = queue_.size();
    std::size_t peak = counters_.queue_peak.load(std::memory_order_relaxed);
    while (depth > peak &&
           !counters_.queue_peak.compare_exchange_weak(
               peak, depth, std::memory_order_relaxed)) {
    }
    lock.unlock();
    queue_cv_.notify_one();
    return true;
  }
  lock.unlock();
  counters_.requests_shed.fetch_add(1, std::memory_order_relaxed);
  write_response(*item.session,
                 error_response(item.request.id, svc::ErrorCode::kOverloaded,
                                "dispatch queue full (" +
                                    std::to_string(options_.queue_capacity) +
                                    " deep); request shed"));
  return false;
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
      if (queue_.empty()) return;  // woken by workers_stop_ with nothing left
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (options_.worker_delay_s > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.worker_delay_s));
    if (item.pinned == nullptr)
      handle_control(*item.session, item.request);  // a reload
    else
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
           << " accept_errors=" << server_stats.accept_errors
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
             << " deadline_hits=" << resilience.deadline_hits;
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
      break;
    case net::MessageKind::kPredict:
    case net::MessageKind::kObserve:
      return;  // unreachable; work frames never land here
  }
  write_response(session, response);
  if (request.kind == net::MessageKind::kShutdown) request_stop();
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
  bool wrote = true;
  try {
    const std::vector<std::uint8_t> wire = net::frame_wire(payload);
    const net::WriteFault fault = chaos != nullptr
                                      ? chaos->next_write_fault()
                                      : net::WriteFault::kNone;
    if (fault != net::WriteFault::kNone) {
      // Injected fault, not a peer failure: the session dies by design
      // and is not counted in responses_dropped (the chaos counters
      // record it). A truncation sends half the frame first.
      if (fault == net::WriteFault::kTruncate)
        (void)session.socket.send_all(wire.data(), wire.size() / 2);
      session.socket.reset();
      session.dead.store(true, std::memory_order_release);
      return;
    }
    // A slow-loris write goes out in paced chunks, a clean one at once.
    // It is counted when chosen, so the count is visible as soon as the
    // peer has the whole frame.
    const bool dribble = chaos != nullptr && chaos->dribble_writes();
    if (dribble) chaos->count_dribbled_write();
    const std::size_t chunk = dribble ? kDribbleChunk : wire.size();
    for (std::size_t offset = 0; wrote && offset < wire.size(); offset += chunk) {
      if (dribble)
        // epp-lint: ignore(EPP-CONC-003) slow-loris chaos paces sends on purpose
        std::this_thread::sleep_for(std::chrono::duration<double>(chaos->dribble_pause_s()));
      wrote = session.socket.send_all(wire.data() + offset,
                                      std::min(chunk, wire.size() - offset));
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
  const auto get = [](const auto& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  const Counters& c = counters_;
  std::size_t depth = 0;
  {
    const std::lock_guard lock(queue_mutex_);
    depth = queue_.size();
  }
  return ServerStats{
      get(c.connections_accepted), get(c.connections_rejected),
      get(c.accept_errors),
      get(c.frames_received),      get(c.requests_enqueued),
      get(c.requests_served),      get(c.served_inline),
      get(c.requests_shed),        get(c.bad_frames),
      get(c.responses_dropped),    get(c.idle_closes),
      get(c.reloads_ok),           get(c.reloads_failed),
      depth,                       get(c.queue_peak),
      open_sessions_.load(std::memory_order_acquire)};
}

}  // namespace epp::serve
