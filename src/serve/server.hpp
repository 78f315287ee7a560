// The prediction serving daemon core: a long-running concurrent TCP
// server answering the length-prefixed binary protocol in
// src/net/frame.hpp from whatever bundle version the BundleRegistry
// currently holds active.
//
// Thread model (all threads are owned and joined by this class):
//
//   * one accept thread — accepts connections and spawns one session
//     reader per connection (bounded by max_connections; excess
//     connections are closed immediately);
//   * one reader thread per live session — decodes frames and answers
//     control frames inline (ping/stats/shutdown/reload). A predict
//     frame whose requested method has a cached answer and a closed
//     breaker on the pinned version is answered inline too, by the
//     same serve() the workers run, so its response bytes are the
//     same; a non-mutating probe (ResilientPredictor::
//     answers_from_cache) decides. Every other predict frame, and
//     every observe frame, goes on the bounded dispatch queue;
//   * a fixed pool of worker threads — pop queued requests, evaluate
//     them through the *version-pinned* ResilientPredictor, and write
//     the response under the session's write lock, so workers and the
//     reader can interleave responses on one connection safely
//     (responses carry the request id; clients match, not order — a
//     hit can overtake a miss sent before it).
//
// Version pinning: the reader captures the registry's active
// ServingVersion (a shared_ptr) at admission, probes the cache on it and
// either serves on it or lets the work item carry it to the worker — a
// request admitted under version N is evaluated on version N even when a
// reload promotes N+1 mid-flight, and never mixes relationships across
// versions. The response reports the version that answered in
// `bundle_version`.
//
// Drift: kObserve frames carry a client-measured RT; the worker
// evaluates the same workload on the pinned version and feeds the
// (predicted, observed) pair to the DriftDetector. Every response's
// `health` byte carries the detector state; a version swap resets the
// detector (new bundle, clean slate).
//
// Chaos: when ServerOptions.chaos is armed, the server *applies* the
// decision-only net::ChaosPolicy verdicts — resets fresh connections at
// accept, delays first reads, and resets / truncates / dribbles
// response writes — so the loadgen harness can drive fault storms
// against the real wire paths.
//
// Admission control: the dispatch queue is bounded. When it is full the
// reader thread sheds the request *immediately* with a typed
// ErrorCode::kOverloaded response instead of queueing without bound —
// under overload clients see fast failures, not a latency collapse.
// Cache hits answered inline never occupy the queue; they still count
// as admitted (requests_enqueued) and served.
//
// Graceful shutdown (request_stop or a kShutdown frame): stop accepting,
// stop reading new frames, let the workers drain every request already
// admitted, flush those responses, then close the sessions. In-flight
// work is never dropped; only unread bytes are.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/drift.hpp"
#include "serve/registry.hpp"
#include "util/annotations.hpp"
#include "util/lock_rank.hpp"

namespace epp::serve {

/// What a kReload frame (or SIGHUP) produced; `message` travels back to
/// the client in the response detail.
struct ReloadStatus {
  bool ok = false;
  std::string message;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back with port()
  /// Fixed worker threads evaluating predictions.
  std::size_t workers = 4;
  /// Bounded dispatch queue; a full queue sheds with kOverloaded.
  std::size_t queue_capacity = 256;
  /// Live sessions beyond this are closed at accept.
  std::size_t max_connections = 256;
  /// Cap on the per-request deadline a client may ask for (seconds);
  /// larger requests are clamped. 0 disables per-request deadlines.
  double max_request_deadline_s = 10.0;
  /// Close a session whose client sends nothing for this long (seconds);
  /// counted in idle_closes. 0 lets a silent client pin its reader
  /// thread forever (the pre-timeout behaviour).
  double idle_timeout_s = 0.0;
  /// Drift detector configuration (applies to kObserve frames).
  DriftOptions drift;
  /// Answers kReload frames (and whatever the host wires SIGHUP to):
  /// typically loads the named bundle file and promotes it through the
  /// registry. Unset = reload unsupported, frames get a typed error.
  std::function<ReloadStatus(const std::string& path)> reload_handler;
  /// Non-owning wire-chaos policy; must outlive the server. nullptr
  /// serves cleanly.
  const net::ChaosPolicy* chaos = nullptr;
  /// Test hook: sleep this long in the worker before each evaluation,
  /// to provoke queue buildup/shedding deterministically (cache hits
  /// answered on the reader do not sleep). Never set in production paths.
  double worker_delay_s = 0.0;
};

/// Counters since start(). Queue depth is instantaneous.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over max_connections
  std::uint64_t frames_received = 0;
  std::uint64_t requests_enqueued = 0; // admitted, inline ones included
  std::uint64_t requests_served = 0;   // predict/observe responses written
  std::uint64_t served_inline = 0;     // of those, by the reader (cache hits)
  std::uint64_t requests_shed = 0;     // kOverloaded at admission
  std::uint64_t bad_frames = 0;        // undecodable payloads
  std::uint64_t responses_dropped = 0; // peer gone before the write
  std::uint64_t idle_closes = 0;       // sessions closed by idle timeout
  std::uint64_t reloads_ok = 0;        // kReload frames that promoted
  std::uint64_t reloads_failed = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  std::size_t open_sessions = 0;
};

class PredictionServer {
 public:
  /// Non-owning: the registry (and any chaos policy in the options)
  /// must outlive the server.
  PredictionServer(BundleRegistry& registry, ServerOptions options = {});
  ~PredictionServer();

  PredictionServer(const PredictionServer&) = delete;
  PredictionServer& operator=(const PredictionServer&) = delete;

  /// Bind, listen and spawn the accept + worker threads. Throws
  /// net::SocketError when the address cannot be bound.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const noexcept { return port_; }

  /// Begin graceful shutdown: stop accepting and reading, let workers
  /// drain the admitted queue. Safe from any thread, including session
  /// readers (a kShutdown frame calls this). Idempotent.
  void request_stop();

  /// True once request_stop() ran (or a kShutdown frame arrived).
  bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Block until the drain completes and every thread is joined. Must
  /// not be called from a server-owned thread. Idempotent.
  void wait();

  /// request_stop() + wait().
  void stop();

  ServerStats stats() const;
  /// Drift state over the active version's observations.
  DriftSnapshot drift() const { return drift_.snapshot(); }
  BundleRegistry& registry() noexcept { return registry_; }

 private:
  struct Session {
    net::Socket socket;
    util::RankedMutex write_mutex{EPP_LOCK_RANK(95),
                                  "serve.server.session_write"};
    std::atomic<bool> dead{false};
  };
  using SessionPtr = std::shared_ptr<Session>;

  struct WorkItem {
    SessionPtr session;
    net::RequestMessage request;
    /// The registry version active at admission; the worker serves on
    /// exactly this version (hot-swap isolation).
    std::shared_ptr<const ServingVersion> pinned;
  };

  void accept_loop();
  void session_loop(SessionPtr session);
  void worker_loop();
  /// Evaluate one admitted predict/observe request on its pinned
  /// version, feed the drift detector and write the response. Workers
  /// run it for queued requests, readers for cache hits.
  void serve(Session& session, const net::RequestMessage& request,
             const ServingVersion& version);
  /// Serialize and send under the session write lock, applying any
  /// armed chaos verdict (reset / truncate / dribble); counts drops.
  void write_response(Session& session, const net::ResponseMessage& response);
  void handle_control(Session& session, const net::RequestMessage& request);
  net::ResponseMessage evaluate(const net::RequestMessage& request,
                                const ServingVersion& version);
  /// Reset the drift detector when the observed version changes.
  void drift_track_version(std::uint64_t version);
  /// Reap finished session-reader threads (called from the accept loop).
  void reap_sessions(bool all);

  BundleRegistry& registry_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  DriftDetector drift_;
  std::atomic<std::uint64_t> drift_version_{0};

  std::unique_ptr<net::Listener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  struct SessionHandle {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    std::weak_ptr<Session> session;  // for the shutdown read-side broadcast
  };
  util::RankedMutex sessions_mutex_{EPP_LOCK_RANK(20),
                                    "serve.server.sessions"};
  std::list<SessionHandle> session_threads_;
  std::atomic<std::size_t> open_sessions_{0};

  mutable util::RankedMutex queue_mutex_{EPP_LOCK_RANK(40),
                                         "serve.server.queue"};
  std::condition_variable_any queue_cv_;
  std::deque<WorkItem> queue_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  /// Set by wait() once every reader is joined (the queue can no longer
  /// grow); workers drain what is left, then exit.
  std::atomic<bool> workers_stop_{false};
  std::atomic<bool> joined_{false};
  util::RankedMutex lifecycle_mutex_{  // serializes wait()/stop() callers
      EPP_LOCK_RANK(10), "serve.server.lifecycle"};

  struct Counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_rejected{0};
    std::atomic<std::uint64_t> frames_received{0};
    std::atomic<std::uint64_t> requests_enqueued{0};
    std::atomic<std::uint64_t> requests_served{0};
    std::atomic<std::uint64_t> served_inline{0};
    std::atomic<std::uint64_t> requests_shed{0};
    std::atomic<std::uint64_t> bad_frames{0};
    std::atomic<std::uint64_t> responses_dropped{0};
    std::atomic<std::uint64_t> idle_closes{0};
    std::atomic<std::uint64_t> reloads_ok{0};
    std::atomic<std::uint64_t> reloads_failed{0};
    std::atomic<std::size_t> queue_peak{0};
  };
  mutable Counters counters_;
};

}  // namespace epp::serve
