// Serving daemon core over the hot-swap registry: loopback round trips,
// admission control (bounded queue, shed with typed kOverloaded),
// per-request protocol deadlines, control frames (including live
// reload), idle-session reaping, drift telemetry and graceful drain.
// Every fixture serves the golden corpus bundle through a BundleRegistry
// — the same promotion path epp_serve uses — so version pinning and the
// EPP-SEM gate are exercised on every scenario, without the simulator.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calib/bundle.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/registry.hpp"
#include "svc/resilient.hpp"

namespace epp::serve {
namespace {

using svc::ErrorCode;
using svc::Method;

/// The golden corpus artifact (verifier-clean by the lint suite's
/// contract), parsed once and copied per fixture.
const calib::CalibrationBundle& corpus_bundle() {
  static const calib::CalibrationBundle bundle =
      calib::load_bundle(std::string(EPP_LINT_CORPUS_DIR) +
                         "/clean/trade.epp");
  return bundle;
}

RegistryOptions registry_options(const svc::ResilienceOptions& resilience) {
  RegistryOptions options;
  options.resilience = resilience;
  return options;
}

/// A server over a fresh registry with the corpus bundle promoted as
/// version 1, bound to an ephemeral loopback port and started. Each
/// fixture instance is fully isolated.
struct ServerFixture {
  BundleRegistry registry;
  std::unique_ptr<PredictionServer> server;

  explicit ServerFixture(ServerOptions options = {},
                         svc::ResilienceOptions resilience = {})
      : registry(registry_options(resilience)) {
    const PromotionResult seeded =
        registry.promote(corpus_bundle(), "corpus/trade.epp");
    if (!seeded.accepted)
      throw std::runtime_error("fixture bundle rejected: " + seeded.message);
    server = std::make_unique<PredictionServer>(registry, options);
    server->start();
  }

  net::Socket connect() const {
    return net::Socket::connect("127.0.0.1", server->port());
  }
};

net::RequestMessage predict_request(std::uint64_t id, Method method,
                                    const std::string& server,
                                    double browse_clients,
                                    double deadline_ms = 0.0) {
  net::RequestMessage request;
  request.kind = net::MessageKind::kPredict;
  request.id = id;
  request.method = static_cast<std::uint8_t>(method);
  request.browse_clients = browse_clients;
  request.deadline_ms = deadline_ms;
  request.server = server;
  return request;
}

void send(net::Socket& socket, const net::RequestMessage& request) {
  ASSERT_TRUE(net::write_frame(socket, net::encode_request(request)));
}

std::optional<net::ResponseMessage> receive(net::Socket& socket) {
  std::vector<std::uint8_t> payload;
  if (!net::read_frame(socket, payload)) return std::nullopt;
  return net::decode_response(payload);
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(PredictionServer, ServesAllMethodsOverLoopback) {
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  std::uint64_t id = 100;
  for (const Method method :
       {Method::kHistorical, Method::kLqn, Method::kHybrid}) {
    for (const char* server : {"AppServS", "AppServF", "AppServVF"}) {
      send(client, predict_request(++id, method, server, 400.0));
      const auto response = receive(client);
      ASSERT_TRUE(response.has_value());
      EXPECT_EQ(response->id, id);
      ASSERT_TRUE(response->ok()) << response->detail;
      EXPECT_EQ(response->served_by, static_cast<std::uint8_t>(method));
      EXPECT_EQ(response->flags & net::kFlagFallback, 0);
      EXPECT_GT(response->mean_rt_s, 0.0);
      EXPECT_GT(response->throughput_rps, 0.0);
      EXPECT_GE(response->predictor_latency_s, 0.0);
      // Every response names the version that answered it.
      EXPECT_EQ(response->bundle_version, 1u);
    }
  }
}

TEST(PredictionServer, PipelinedRequestsAllAnsweredById) {
  // Fire a burst without reading, then match responses by id: with
  // several workers interleaving on one connection, order is not
  // guaranteed but identity and completeness are.
  ServerOptions options;
  options.workers = 4;
  ServerFixture fixture(options);
  net::Socket client = fixture.connect();
  constexpr std::uint64_t kRequests = 32;
  for (std::uint64_t id = 1; id <= kRequests; ++id)
    send(client, predict_request(id, Method::kHistorical, "AppServF",
                                 200.0 + 10.0 * static_cast<double>(id)));
  std::map<std::uint64_t, net::ResponseMessage> responses;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const auto response = receive(client);
    ASSERT_TRUE(response.has_value());
    responses.emplace(response->id, *response);
  }
  ASSERT_EQ(responses.size(), kRequests);
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(responses.count(id)) << "response " << id << " missing";
    EXPECT_TRUE(responses.at(id).ok()) << responses.at(id).detail;
  }
}

TEST(PredictionServer, SecondIdenticalRequestIsACacheHit) {
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  send(client, predict_request(1, Method::kLqn, "AppServF", 640.0));
  const auto first = receive(client);
  ASSERT_TRUE(first.has_value() && first->ok());
  send(client, predict_request(2, Method::kLqn, "AppServF", 640.0));
  const auto second = receive(client);
  ASSERT_TRUE(second.has_value() && second->ok());
  EXPECT_EQ(second->flags & net::kFlagCached, net::kFlagCached);
  EXPECT_EQ(second->mean_rt_s, first->mean_rt_s);
}

// ---------------------------------------------------------------------------
// Typed errors.
// ---------------------------------------------------------------------------

TEST(PredictionServer, UnknownMethodByteGetsInvalidWorkload) {
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  net::RequestMessage request =
      predict_request(7, Method::kHistorical, "AppServF", 100.0);
  request.method = 9;
  send(client, request);
  const auto response = receive(client);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->error_code,
            static_cast<std::uint8_t>(ErrorCode::kInvalidWorkload));
}

TEST(PredictionServer, UnknownServerGetsNotCalibrated) {
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  send(client, predict_request(8, Method::kLqn, "NoSuchServer", 100.0));
  const auto response = receive(client);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->error_code,
            static_cast<std::uint8_t>(ErrorCode::kNotCalibrated));
}

TEST(PredictionServer, ExpiredProtocolDeadlineGetsDeadlineExceeded) {
  // A deadline too small to evaluate anything maps through
  // predict_with_deadline onto the svc cancellation machinery; disable
  // fallback + stale so the typed deadline error surfaces directly.
  svc::ResilienceOptions resilience;
  resilience.fallback_enabled = false;
  resilience.serve_stale = false;
  ServerFixture fixture(ServerOptions{}, resilience);
  net::Socket client = fixture.connect();
  send(client,
       predict_request(9, Method::kLqn, "AppServF", 900.0, /*deadline_ms=*/1e-6));
  const auto response = receive(client);
  ASSERT_TRUE(response.has_value());
  ASSERT_FALSE(response->ok()) << "a 1 ns deadline cannot be met";
  EXPECT_EQ(response->error_code,
            static_cast<std::uint8_t>(ErrorCode::kDeadlineExceeded));
}

TEST(PredictionServer, MalformedFrameClosesTheSessionWithAnError) {
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  const std::vector<std::uint8_t> garbage{0xFF, 0x00, 0xAB};
  ASSERT_TRUE(net::write_frame(client, garbage));
  const auto response = receive(client);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->error_code,
            static_cast<std::uint8_t>(ErrorCode::kInternal));
  // The stream is desynchronized: the server hangs up after answering.
  EXPECT_FALSE(receive(client).has_value());
  EXPECT_GE(fixture.server->stats().bad_frames, 1u);
}

// ---------------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------------

TEST(PredictionServer, OverloadShedsWithTypedOverloadedError) {
  // One slow worker (50 ms per evaluation via the test hook) and a
  // 1-deep queue: a burst must come back as a few served plus many
  // typed kOverloaded sheds — never an unbounded backlog, and every
  // request gets *some* response.
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.worker_delay_s = 0.05;
  ServerFixture fixture(options);
  net::Socket client = fixture.connect();
  constexpr std::uint64_t kBurst = 12;
  for (std::uint64_t id = 1; id <= kBurst; ++id)
    send(client, predict_request(id, Method::kHistorical, "AppServF", 300.0));
  std::uint64_t ok = 0, shed = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    const auto response = receive(client);
    ASSERT_TRUE(response.has_value());
    if (response->ok()) {
      ++ok;
    } else {
      ASSERT_EQ(response->error_code,
                static_cast<std::uint8_t>(ErrorCode::kOverloaded))
          << response->detail;
      EXPECT_NE(response->detail.find("queue full"), std::string::npos)
          << response->detail;
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GE(shed, 1u) << "burst never overflowed the 1-deep queue";
  EXPECT_GE(ok, 1u) << "admitted requests must still be served";
  const ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.requests_shed, shed);
  EXPECT_EQ(stats.requests_enqueued, ok);
}

TEST(PredictionServer, ConnectionsBeyondTheCapAreClosed) {
  ServerOptions options;
  options.max_connections = 1;
  ServerFixture fixture(options);
  net::Socket first = fixture.connect();
  // Prove the first session is live before the second connects.
  net::RequestMessage ping;
  ping.kind = net::MessageKind::kPing;
  ping.id = 1;
  send(first, ping);
  ASSERT_TRUE(receive(first).has_value());

  net::Socket second = fixture.connect();
  // The server closes the excess connection without a frame: EOF.
  EXPECT_FALSE(receive(second).has_value());
  EXPECT_GE(fixture.server->stats().connections_rejected, 1u);
}

TEST(PredictionServer, IdleSessionsAreReapedByTheTimeout) {
  // A client that connects and never speaks must not pin a reader
  // thread forever: with the idle timeout armed its session reaches
  // EOF and the close is typed (idle_closes), not a bad_frames error.
  ServerOptions options;
  options.idle_timeout_s = 0.05;
  ServerFixture fixture(options);
  net::Socket silent = fixture.connect();
  EXPECT_FALSE(receive(silent).has_value()) << "server kept an idle session";
  // The reaped session must not poison serving for others.
  net::Socket active = fixture.connect();
  send(active, predict_request(1, Method::kLqn, "AppServF", 300.0));
  const auto response = receive(active);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->ok()) << response->detail;
  EXPECT_GE(fixture.server->stats().idle_closes, 1u);
  EXPECT_EQ(fixture.server->stats().bad_frames, 0u);
}

// ---------------------------------------------------------------------------
// Control frames.
// ---------------------------------------------------------------------------

TEST(PredictionServer, PingAndStatsAnswerInline) {
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  net::RequestMessage ping;
  ping.kind = net::MessageKind::kPing;
  ping.id = 77;
  send(client, ping);
  const auto pong = receive(client);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->id, 77u);
  EXPECT_TRUE(pong->ok());

  send(client, predict_request(78, Method::kHistorical, "AppServF", 250.0));
  ASSERT_TRUE(receive(client).has_value());

  net::RequestMessage stats;
  stats.kind = net::MessageKind::kStats;
  stats.id = 79;
  send(client, stats);
  const auto reply = receive(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok());
  EXPECT_NE(reply->detail.find("requests_served="), std::string::npos)
      << reply->detail;
  EXPECT_NE(reply->detail.find("stale_evictions="), std::string::npos)
      << reply->detail;
  // The serving-tier keys added with the registry/drift layer.
  EXPECT_NE(reply->detail.find("bundle_version=1"), std::string::npos)
      << reply->detail;
  EXPECT_NE(reply->detail.find("health="), std::string::npos) << reply->detail;
  EXPECT_NE(reply->detail.find("idle_closes="), std::string::npos)
      << reply->detail;
}

TEST(PredictionServer, ReloadFrameWithoutHandlerGetsTypedError) {
  ServerFixture fixture;  // no reload_handler configured
  net::Socket client = fixture.connect();
  net::RequestMessage reload;
  reload.kind = net::MessageKind::kReload;
  reload.id = 5;
  send(client, reload);
  const auto response = receive(client);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->error_code,
            static_cast<std::uint8_t>(ErrorCode::kInternal));
  EXPECT_EQ(fixture.server->stats().reloads_failed, 1u);
}

TEST(PredictionServer, ReloadFramePromotesAndReportsTheNewVersion) {
  // The handler promotes whatever "path" names — here the corpus bundle
  // again, so the swap is real (version 2) without touching disk.
  ServerOptions options;
  ServerFixture fixture;
  fixture.server->stop();
  BundleRegistry& registry = fixture.registry;
  options.reload_handler = [&registry](const std::string& path) {
    const PromotionResult result = registry.promote(corpus_bundle(), path);
    return ReloadStatus{result.accepted, result.message};
  };
  PredictionServer server(registry, options);
  server.start();
  net::Socket client = net::Socket::connect("127.0.0.1", server.port());

  net::RequestMessage reload;
  reload.kind = net::MessageKind::kReload;
  reload.id = 11;
  reload.server = "refit/trade.epp";  // candidate path rides the server field
  ASSERT_TRUE(net::write_frame(client, net::encode_request(reload)));
  const auto ack = receive(client);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->ok()) << ack->detail;
  EXPECT_NE(ack->detail.find("version 2"), std::string::npos) << ack->detail;
  EXPECT_EQ(registry.active_version(), 2u);
  EXPECT_EQ(server.stats().reloads_ok, 1u);

  // Requests after the swap are answered by the new version.
  net::RequestMessage request =
      predict_request(12, Method::kLqn, "AppServF", 320.0);
  ASSERT_TRUE(net::write_frame(client, net::encode_request(request)));
  const auto response = receive(client);
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->ok()) << response->detail;
  EXPECT_EQ(response->bundle_version, 2u);
  server.stop();
}

// ---------------------------------------------------------------------------
// Drift telemetry.
// ---------------------------------------------------------------------------

TEST(PredictionServer, ObserveFramesDriveHealthThroughWarmupToDrift) {
  // Close the loop end to end: learn the active bundle's prediction for
  // one workload, report agreeing measurements through warmup, then step
  // the "measured" RT to 2x. The Page–Hinkley detector must alarm within
  // a few drifted observations (lambda / (1 - delta) plus mean drag; see
  // serve_drift_test for the pinned bound) and every response's health
  // byte must track warming -> healthy -> drifting.
  ServerOptions options;
  options.workers = 1;  // serialize observes so detector order is exact
  options.drift.min_samples = 8;
  ServerFixture fixture(options);
  net::Socket client = fixture.connect();

  send(client, predict_request(1, Method::kLqn, "AppServF", 500.0));
  const auto predicted = receive(client);
  ASSERT_TRUE(predicted.has_value() && predicted->ok());
  ASSERT_GT(predicted->mean_rt_s, 0.0);
  EXPECT_EQ(predicted->health,
            static_cast<std::uint8_t>(HealthState::kWarming));

  net::RequestMessage observe =
      predict_request(0, Method::kLqn, "AppServF", 500.0);
  observe.kind = net::MessageKind::kObserve;

  // Warmup: measurements agree with the model (zero relative error).
  std::uint64_t id = 100;
  for (std::size_t i = 0; i < 8; ++i) {
    observe.id = ++id;
    observe.observed_rt_s = predicted->mean_rt_s;
    send(client, observe);
    const auto ack = receive(client);
    ASSERT_TRUE(ack.has_value() && ack->ok()) << ack->detail;
  }
  EXPECT_EQ(fixture.server->drift().state, HealthState::kHealthy);

  // Step change: the world got 2x slower than the model. The alarm must
  // latch within a bounded number of further observations.
  bool drifted = false;
  for (std::size_t i = 0; i < 16 && !drifted; ++i) {
    observe.id = ++id;
    observe.observed_rt_s = 2.0 * predicted->mean_rt_s;
    send(client, observe);
    const auto ack = receive(client);
    ASSERT_TRUE(ack.has_value() && ack->ok()) << ack->detail;
    drifted = ack->health == static_cast<std::uint8_t>(HealthState::kDrifting);
  }
  EXPECT_TRUE(drifted) << "2x drift never tripped the detector";
  const DriftSnapshot snapshot = fixture.server->drift();
  EXPECT_EQ(snapshot.state, HealthState::kDrifting);
  EXPECT_GE(snapshot.trips, 1u);

  // A version swap resets the detector: health returns to warming.
  ASSERT_TRUE(fixture.registry.promote(corpus_bundle(), "refit").accepted);
  observe.id = ++id;
  observe.observed_rt_s = predicted->mean_rt_s;
  send(client, observe);
  const auto fresh = receive(client);
  ASSERT_TRUE(fresh.has_value() && fresh->ok()) << fresh->detail;
  EXPECT_EQ(fresh->health, static_cast<std::uint8_t>(HealthState::kWarming));
  EXPECT_EQ(fresh->bundle_version, 2u);
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

TEST(PredictionServer, ShutdownFrameDrainsAdmittedWorkThenCloses) {
  // Pipeline predicts behind a slow worker, then a shutdown frame. Every
  // admitted request must still be answered (the ack + drain contract),
  // then the connection reaches EOF and wait() returns.
  ServerOptions options;
  options.workers = 1;
  options.worker_delay_s = 0.02;
  ServerFixture fixture(options);
  net::Socket client = fixture.connect();
  constexpr std::uint64_t kRequests = 5;
  for (std::uint64_t id = 1; id <= kRequests; ++id)
    send(client, predict_request(id, Method::kHistorical, "AppServF", 300.0));
  net::RequestMessage shutdown;
  shutdown.kind = net::MessageKind::kShutdown;
  shutdown.id = 99;
  send(client, shutdown);

  std::uint64_t predict_responses = 0;
  bool shutdown_acked = false;
  while (const auto response = receive(client)) {
    if (response->id == 99) {
      shutdown_acked = true;
      EXPECT_EQ(response->detail, "draining");
    } else {
      EXPECT_TRUE(response->ok()) << response->detail;
      ++predict_responses;
    }
  }
  EXPECT_TRUE(shutdown_acked);
  EXPECT_EQ(predict_responses, kRequests)
      << "admitted requests were dropped during drain";

  EXPECT_TRUE(fixture.server->stopping());
  fixture.server->wait();
  const ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.requests_served, kRequests);
  EXPECT_EQ(stats.queue_depth, 0u) << "drain left work in the queue";
  EXPECT_EQ(stats.open_sessions, 0u);
}

TEST(PredictionServer, StopFromOwnerThreadDrainsAndJoins) {
  ServerOptions options;
  options.workers = 2;
  ServerFixture fixture(options);
  net::Socket client = fixture.connect();
  for (std::uint64_t id = 1; id <= 8; ++id)
    send(client, predict_request(id, Method::kHybrid, "AppServVF", 350.0));
  // Give the reader a moment to admit, then stop; stop() must join
  // everything without deadlock and serve whatever was admitted.
  fixture.server->stop();
  const ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.requests_served, stats.requests_enqueued);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Idempotent: a second stop is a no-op.
  fixture.server->stop();
}

// Regression: wait() stored the workers' stop flag and notified them
// without holding the queue lock, so a worker that had checked its wait
// predicate but not yet blocked missed the wake-up and join() never
// returned. Stopping right after start hits that window at once. The
// loop runs on its own thread so that a hang fails the test instead of
// stalling the suite.
TEST(PredictionServer, ImmediateStartStopNeverHangs) {
  BundleRegistry registry(registry_options({}));
  ASSERT_TRUE(registry.promote(corpus_bundle(), "corpus/trade.epp").accepted);
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread loop([&registry, &done] {
    ServerOptions options;
    options.workers = 8;
    for (int i = 0; i < 200; ++i) {
      PredictionServer server(registry, options);
      server.start();
      server.stop();
    }
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    // The loop thread is parked in join() for good and can be neither
    // joined nor destroyed; end the process so the hang is a failure.
    std::fprintf(stderr,
                 "start/stop hung: a worker missed the stop notification\n");
    std::_Exit(1);
  }
  loop.join();
}

TEST(PredictionServer, DoubleStartThrows) {
  ServerFixture fixture;
  EXPECT_THROW(fixture.server->start(), std::logic_error);
}

}  // namespace
}  // namespace epp::serve
