// The prediction serving daemon core: a concurrent TCP server answering
// the length-prefixed protocol of src/net/frame.hpp from whatever bundle
// version the BundleRegistry holds active.
//
// Threads: workers + 1, however many sessions are open.
//
//   * The loop thread poll()s the listener, its wake pipe and every
//     session (at most max_connections; excess ones are closed at
//     accept), reads what is ready into a per-session buffer and handles
//     each whole frame. Ping, stats and shutdown are answered inline, as
//     is a predict whose method has a cached answer on the pinned version
//     (BatchPredictor::peek, a non-mutating probe, decides), by the same
//     serve() a worker runs.
//     Other predicts, observes and reloads (a bundle load plus the
//     EPP-SEM gate) go on the bounded queue; when it is full the request
//     is shed at once with a typed kOverloaded error. The loop also keeps
//     the session timers: the idle timeout counts from the last read, and
//     a chaos accept delay defers the first read. A failed accept (out
//     of descriptors, say) is counted and leaves the listener unpolled
//     for 100 ms; the open sessions are served meanwhile.
//   * The workers pop queued items, evaluate them on their pinned version
//     and write the response under the session's write lock. Sockets stay
//     blocking, so workers and the loop interleave responses on one
//     connection safely (clients match by request id: a hit can overtake
//     a miss sent before it). A write on the loop holds the loop: an
//     inline answer to a client that stops reading, or a dribbled one,
//     paces every session (dribble is a chaos verdict, armed only to test
//     slow writers).
//
// Version pinning: a request admitted under registry version N is
// answered on N (`bundle_version`) even when a reload promotes N+1
// meanwhile. kObserve frames feed (predicted, observed RT) to the
// DriftDetector; every response's `health` byte carries its state, and a
// version swap resets it. An armed ServerOptions.chaos has its verdicts
// applied on the real wire paths: reset at accept, deferred first reads,
// reset / truncated / dribbled response writes.
//
// Graceful shutdown (request_stop or a kShutdown frame): the loop stops
// accepting and reading and exits; the workers drain every admitted
// request; each session closes once its last response is written.
// In-flight work is never dropped; only unread bytes are.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
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
  /// Close a session whose client sends nothing for this long (seconds),
  /// mid-frame or between frames; counted in idle_closes. 0 keeps a
  /// silent session open until the client closes it.
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
  /// answered on the loop do not sleep). Never set in production paths.
  double worker_delay_s = 0.0;
};

/// Counters since start(). Queue depth is instantaneous.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over max_connections
  std::uint64_t accept_errors = 0;  // failed accepts, each pauses accepting
  std::uint64_t frames_received = 0;
  std::uint64_t requests_enqueued = 0; // predict/observe admitted, inline too
  std::uint64_t requests_served = 0;   // predict/observe responses written
  std::uint64_t served_inline = 0;     // of those, by the loop (cache hits)
  std::uint64_t requests_shed = 0;     // kOverloaded at admission, reloads too
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

  /// Bind, listen and spawn the loop + worker threads. Throws
  /// net::SocketError when the address cannot be bound.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const noexcept { return port_; }

  /// Begin graceful shutdown: stop accepting and reading, let workers
  /// drain the admitted queue. Safe from any thread, including the loop
  /// (a kShutdown frame calls this). Idempotent.
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
    // Loop-only: bytes read but not yet a whole frame, and the time the
    // idle timeout counts from (the last read). A chaos accept delay
    // sets it in the future; the session is not read before it.
    std::vector<std::uint8_t> inbox;
    std::chrono::steady_clock::time_point quiet_since;
  };
  using SessionPtr = std::shared_ptr<Session>;

  struct WorkItem {
    SessionPtr session;
    net::RequestMessage request;
    /// The registry version active at admission; the worker serves on
    /// exactly this version (hot-swap isolation). Null for a reload.
    std::shared_ptr<const ServingVersion> pinned;
  };

  void serve_loop();
  /// Read what the session has ready and handle every whole frame in
  /// its inbox. False when the session is to be closed.
  bool read_session(const SessionPtr& session);
  /// Handle one frame's payload. False when the session is to be closed.
  bool handle_frame(const SessionPtr& session,
                    const std::vector<std::uint8_t>& payload);
  /// Queue an item for the workers, or shed it with kOverloaded when the
  /// queue is full. True when admitted.
  bool enqueue(WorkItem item);
  void worker_loop();
  /// Evaluate one admitted predict/observe request on its pinned
  /// version, feed the drift detector and write the response. Workers
  /// run it for queued requests, the loop for cache hits.
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

  BundleRegistry& registry_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  DriftDetector drift_;
  std::atomic<std::uint64_t> drift_version_{0};

  std::unique_ptr<net::Listener> listener_;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> open_sessions_{0};
  std::vector<std::uint8_t> payload_;  // the loop's frame being handled

  mutable util::RankedMutex queue_mutex_{EPP_LOCK_RANK(40),
                                         "serve.server.queue"};
  std::condition_variable_any queue_cv_;
  std::deque<WorkItem> queue_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  /// Set by wait() once the loop is joined (the queue can no longer
  /// grow); workers drain what is left, then exit.
  std::atomic<bool> workers_stop_{false};
  std::atomic<bool> joined_{false};
  util::RankedMutex lifecycle_mutex_{  // serializes wait()/stop() callers
      EPP_LOCK_RANK(10), "serve.server.lifecycle"};

  struct Counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_rejected{0};
    std::atomic<std::uint64_t> accept_errors{0};
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
