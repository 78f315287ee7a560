// Serving daemon core over the hot-swap registry: loopback round trips,
// admission control (bounded queue, shed with typed kOverloaded),
// per-request protocol deadlines, control frames (including live
// reload), idle-session reaping, drift telemetry, graceful drain, framing
// across reads, accept errors, wire chaos and the thread count of the
// serving loop.
// Every fixture serves the golden corpus bundle through a BundleRegistry
// — the same promotion path epp_serve uses — so version pinning and the
// EPP-SEM gate are exercised on every scenario, without the simulator.
#include "serve/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calib/bundle.hpp"
#include "net/chaos.hpp"
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

TEST(PredictionServer, CacheHitIsAnsweredBeforeAMissQueuedAheadOfIt) {
  // A cached answer is given on the reading thread. With the only worker
  // held on a miss, a hit sent after that miss on the same connection
  // comes back first, with the same bytes a worker would have written.
  ServerOptions options;
  options.workers = 1;
  options.worker_delay_s = 0.25;
  ServerFixture fixture(options);
  net::Socket client = fixture.connect();
  send(client, predict_request(1, Method::kLqn, "AppServF", 640.0));
  const auto warm = receive(client);  // a miss: the worker fills the cache
  ASSERT_TRUE(warm.has_value() && warm->ok()) << warm->detail;

  send(client, predict_request(2, Method::kLqn, "AppServF", 900.0));  // miss
  send(client, predict_request(3, Method::kLqn, "AppServF", 640.0));  // hit
  const auto first = receive(client);
  const auto second = receive(client);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->id, 3u) << "the hit waited behind the miss";
  EXPECT_EQ(second->id, 2u);
  ASSERT_TRUE(first->ok() && second->ok());
  EXPECT_EQ(first->flags, net::kFlagCached);
  EXPECT_EQ(first->mean_rt_s, warm->mean_rt_s);
  EXPECT_EQ(first->bundle_version, 1u);

  net::RequestMessage stats;
  stats.kind = net::MessageKind::kStats;
  stats.id = 4;
  send(client, stats);
  const auto reply = receive(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->detail.find("served_inline=1 "), std::string::npos)
      << reply->detail;

  fixture.server->stop();
  const ServerStats final_stats = fixture.server->stats();
  EXPECT_EQ(final_stats.served_inline, 1u);
  EXPECT_EQ(final_stats.requests_enqueued, 3u);
  EXPECT_EQ(final_stats.requests_served, 3u);
  EXPECT_EQ(final_stats.queue_peak, 1u);
}

TEST(PredictionServer, HotSwapServesQueuedMissesOnTheirAdmissionVersion) {
  // BundleRegistry.HotSwapUnderLoadPinsVersionsAndDropsNothing with a
  // distinct load for every request: none is a cache hit answered on
  // the reading thread, so the first burst waits in the queue behind the
  // slow worker while version 2 is promoted, and is still served
  // entirely on version 1.
  calib::CalibrationBundle slow = corpus_bundle();
  slow.lqn.browse.app_demand_s *= 2.0;
  slow.lqn.buy.app_demand_s *= 2.0;

  ServerOptions options;
  options.workers = 1;
  options.worker_delay_s = 0.02;
  ServerFixture fixture(options);
  const std::shared_ptr<const ServingVersion> v1 = fixture.registry.active();
  net::Socket client = fixture.connect();

  constexpr std::uint64_t kBurst = 10;
  const auto clients_for = [](std::uint64_t id) {
    return 400.0 + 10.0 * static_cast<double>(id);
  };
  for (std::uint64_t id = 1; id <= kBurst; ++id)
    send(client, predict_request(id, Method::kLqn, "AppServF", clients_for(id)));
  // Promote once the reader has admitted (and pinned) the whole burst.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fixture.server->stats().requests_enqueued < kBurst &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(fixture.server->stats().requests_enqueued, kBurst);
  EXPECT_GT(fixture.server->stats().queue_depth, 0u)
      << "nothing was left queued at the swap";
  ASSERT_TRUE(fixture.registry.promote(std::move(slow), "slow").accepted);
  const std::shared_ptr<const ServingVersion> v2 = fixture.registry.active();
  ASSERT_EQ(v2->version, 2u);

  for (std::uint64_t id = 100; id < 100 + kBurst; ++id)
    send(client, predict_request(id, Method::kLqn, "AppServF", clients_for(id)));

  std::map<std::uint64_t, net::ResponseMessage> responses;
  for (std::uint64_t i = 0; i < 2 * kBurst; ++i) {
    const auto response = receive(client);
    ASSERT_TRUE(response.has_value()) << "response " << i << " dropped";
    responses.emplace(response->id, *response);
  }
  ASSERT_EQ(responses.size(), 2 * kBurst);
  fixture.server->stop();
  EXPECT_EQ(fixture.server->stats().served_inline, 0u)
      << "a distinct load was answered as a hit";
  EXPECT_EQ(fixture.server->stats().responses_dropped, 0u);

  // The reference answers come from each version's own engine, after the
  // server has stopped, so they cannot turn a request into a hit.
  for (const auto& [id, response] : responses) {
    ASSERT_TRUE(response.ok()) << id << ": " << response.detail;
    const ServingVersion& expected = id <= kBurst ? *v1 : *v2;
    const ServingVersion& other = id <= kBurst ? *v2 : *v1;
    svc::PredictionRequest request;
    request.method = Method::kLqn;
    request.server = "AppServF";
    request.workload.browse_clients = clients_for(id);
    EXPECT_EQ(response.bundle_version, expected.version) << id;
    EXPECT_EQ(response.mean_rt_s,
              expected.predictors.batch->predict(request).mean_rt_s)
        << "request " << id << " answered with foreign relationships";
    EXPECT_NE(response.mean_rt_s,
              other.predictors.batch->predict(request).mean_rt_s)
        << "the versions agree at " << clients_for(id) << " clients";
  }
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

TEST(PredictionServer, ErrorCodesKeepTheirWireNumbers) {
  // A response's error_code byte is the svc::ErrorCode value, and
  // clients match on the number. A retired code leaves its number unused
  // (3 was circuit-open), so every other code keeps its byte.
  EXPECT_EQ(static_cast<std::uint8_t>(ErrorCode::kNotCalibrated), 0);
  EXPECT_EQ(static_cast<std::uint8_t>(ErrorCode::kSolverDiverged), 1);
  EXPECT_EQ(static_cast<std::uint8_t>(ErrorCode::kDeadlineExceeded), 2);
  EXPECT_EQ(static_cast<std::uint8_t>(ErrorCode::kInvalidWorkload), 4);
  EXPECT_EQ(static_cast<std::uint8_t>(ErrorCode::kTransientFailure), 5);
  EXPECT_EQ(static_cast<std::uint8_t>(ErrorCode::kInternal), 6);
  EXPECT_EQ(static_cast<std::uint8_t>(ErrorCode::kOverloaded), 7);
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
  EXPECT_NE(reply->detail.find("cache_evictions="), std::string::npos)
      << reply->detail;
  // The serving-tier keys added with the registry/drift layer.
  EXPECT_NE(reply->detail.find("bundle_version=1"), std::string::npos)
      << reply->detail;
  EXPECT_NE(reply->detail.find("health="), std::string::npos) << reply->detail;
  EXPECT_NE(reply->detail.find("idle_closes="), std::string::npos)
      << reply->detail;
}

TEST(PredictionServer, StatsReplyCountsWhatTheResilientLayerServed) {
  // kStats carries the resilient predictor's live counters: one answer
  // and one typed error after the two requests below. The serving layer
  // keeps no per-server failure state, so there is no breaker count.
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  send(client, predict_request(1, Method::kHistorical, "AppServF", 250.0));
  const auto served = receive(client);
  ASSERT_TRUE(served.has_value());
  ASSERT_TRUE(served->ok());
  send(client, predict_request(2, Method::kLqn, "NoSuchServer", 250.0));
  const auto failed = receive(client);
  ASSERT_TRUE(failed.has_value());
  ASSERT_FALSE(failed->ok());

  net::RequestMessage stats;
  stats.kind = net::MessageKind::kStats;
  stats.id = 3;
  send(client, stats);
  const auto reply = receive(client);
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->ok());
  const std::string& detail = reply->detail;
  EXPECT_NE(detail.find(" served=1 "), std::string::npos) << detail;
  EXPECT_NE(detail.find(" errors=1 "), std::string::npos) << detail;
  EXPECT_NE(detail.find(" fallbacks=0 "), std::string::npos) << detail;
  EXPECT_NE(detail.find(" stale_serves=0 "), std::string::npos) << detail;
  EXPECT_NE(detail.find(" deadline_hits=0"), std::string::npos) << detail;
  EXPECT_EQ(detail.find("breaker"), std::string::npos) << detail;
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

// ---------------------------------------------------------------------------
// Determinism: an answer is a function of its request alone.
// ---------------------------------------------------------------------------

/// Serve `requests` pipelined on one connection and return each
/// response's wire bytes by request id. The measured predictor latency
/// is zeroed, and the cache-hit flag is masked: which copy of a repeated
/// request misses depends on arrival order. Stale replay is off, because
/// it depends on history by design.
std::map<std::uint64_t, std::vector<std::uint8_t>> serve_all(
    std::size_t workers, const std::vector<net::RequestMessage>& requests) {
  ServerOptions options;
  options.workers = workers;
  options.queue_capacity = requests.size();
  svc::ResilienceOptions resilience;
  resilience.serve_stale = false;
  ServerFixture fixture(options, resilience);
  net::Socket client = fixture.connect();
  for (const net::RequestMessage& request : requests) send(client, request);
  std::map<std::uint64_t, std::vector<std::uint8_t>> responses;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::optional<net::ResponseMessage> response = receive(client);
    if (!response.has_value()) break;
    response->predictor_latency_s = 0.0;
    response->flags &= static_cast<std::uint8_t>(~net::kFlagCached);
    responses[response->id] = net::encode_response(*response);
  }
  return responses;
}

TEST(PredictionServer, AnswersDoNotDependOnWorkersOrArrivalOrder) {
  // Every method at 0% and 25% buy over loads that are not multiples of
  // 4, so each 25% bucket holds several exact mixes after quantization.
  // Then LQN AppServS at every load from 655 to 682 clients, where the
  // solver fails to converge at some loads and converges at others, so
  // failures come before successes in either order. Each request is
  // sent twice.
  std::vector<net::RequestMessage> requests;
  for (int copy = 0; copy < 2; ++copy) {
    for (const Method method :
         {Method::kHistorical, Method::kLqn, Method::kHybrid})
      for (const char* server : {"AppServS", "AppServF", "AppServVF"})
        for (const double buy : {0.0, 0.25})
          for (const double clients :
               {150.0, 301.0, 433.0, 517.0, 650.0, 777.0, 902.0, 1031.0}) {
            net::RequestMessage request = predict_request(
                requests.size() + 1, method, server, clients * (1.0 - buy));
            request.buy_clients = clients * buy;
            requests.push_back(request);
          }
    for (double clients = 655.0; clients <= 682.0; clients += 1.0)
      requests.push_back(predict_request(requests.size() + 1, Method::kLqn,
                                         "AppServS", clients));
  }
  const auto forward = serve_all(1, requests);
  const auto reverse = serve_all(
      4, std::vector<net::RequestMessage>(requests.rbegin(), requests.rend()));
  ASSERT_EQ(forward.size(), requests.size());
  ASSERT_EQ(reverse.size(), requests.size());
  for (const auto& [id, bytes] : forward)
    EXPECT_EQ(bytes, reverse.at(id)) << "request " << id;
}

TEST(PredictionServer, DoubleStartThrows) {
  ServerFixture fixture;
  EXPECT_THROW(fixture.server->start(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Framing across reads: the loop reassembles whatever the kernel hands it.
// ---------------------------------------------------------------------------

net::RequestMessage ping_request(std::uint64_t id) {
  net::RequestMessage ping;
  ping.kind = net::MessageKind::kPing;
  ping.id = id;
  return ping;
}

std::vector<std::uint8_t> wire_of(const net::RequestMessage& request) {
  return net::frame_wire(net::encode_request(request));
}

TEST(PredictionServer, RequestSentOneBytePerSendIsAnswered) {
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  for (const std::uint8_t byte :
       wire_of(predict_request(1, Method::kHistorical, "AppServF", 300.0))) {
    ASSERT_TRUE(client.send_all(&byte, 1));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto response = receive(client);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 1u);
  EXPECT_TRUE(response->ok()) << response->detail;
  EXPECT_EQ(fixture.server->stats().frames_received, 1u);
  EXPECT_EQ(fixture.server->stats().bad_frames, 0u);
}

TEST(PredictionServer, TwoRequestsCoalescedInOneSendAreBothAnswered) {
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  std::vector<std::uint8_t> wire =
      wire_of(predict_request(1, Method::kLqn, "AppServF", 300.0));
  const std::vector<std::uint8_t> second = wire_of(ping_request(2));
  wire.insert(wire.end(), second.begin(), second.end());
  ASSERT_TRUE(client.send_all(wire.data(), wire.size()));
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    const auto response = receive(client);
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->ok()) << response->detail;
    ids.insert(response->id);
  }
  EXPECT_EQ(ids, (std::set<std::uint64_t>{1, 2}));
  EXPECT_EQ(fixture.server->stats().frames_received, 2u);
}

TEST(PredictionServer, OversizedPrefixClosesTheSessionWithoutBuffering) {
  // The prefix announces 4 GiB. The server must refuse it on the four
  // bytes alone: it closes the session at once instead of waiting for
  // (or sizing a buffer for) the announced payload.
  ServerFixture fixture;
  net::Socket client = fixture.connect();
  const std::uint8_t prefix[net::kLengthPrefixBytes] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(client.send_all(prefix, sizeof(prefix)));
  EXPECT_FALSE(receive(client).has_value()) << "session left open";
  const ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.bad_frames, 1u);
  EXPECT_EQ(stats.frames_received, 0u);
  // Other sessions are unaffected.
  net::Socket other = fixture.connect();
  send(other, ping_request(3));
  ASSERT_TRUE(receive(other).has_value());
}

TEST(PredictionServer, ClientStalledMidFrameIsClosedByTheIdleTimeout) {
  ServerOptions options;
  options.idle_timeout_s = 0.05;
  ServerFixture fixture(options);
  net::Socket stalled = fixture.connect();
  const std::vector<std::uint8_t> wire = wire_of(ping_request(1));
  ASSERT_TRUE(stalled.send_all(wire.data(), wire.size() / 2));
  EXPECT_FALSE(receive(stalled).has_value()) << "half a frame held the session";
  const ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.idle_closes, 1u);
  EXPECT_EQ(stats.bad_frames, 0u);
  EXPECT_EQ(stats.frames_received, 0u);
}

// ---------------------------------------------------------------------------
// Accept errors pause accepting; they do not end it.
// ---------------------------------------------------------------------------

/// Fills this process's descriptor table, so the next accept() fails
/// with EMFILE: lowers the RLIMIT_NOFILE soft limit to kSlots above the
/// lowest free descriptor, then dup()s `fd` until none is left.
/// release() (or the destructor) closes the fillers and restores the
/// limit; the guard matters because a sanitizer build runs every
/// PredictionServer test in one process.
class DescriptorTableFiller {
 public:
  static constexpr rlim_t kSlots = 16;

  explicit DescriptorTableFiller(int fd) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    const int lowest_free = ::dup(fd);
    if (lowest_free < 0) return;
    ::close(lowest_free);
    rlimit lowered = saved_;
    lowered.rlim_cur =
        std::min(saved_.rlim_cur, static_cast<rlim_t>(lowest_free) + kSlots);
    if (::setrlimit(RLIMIT_NOFILE, &lowered) != 0) return;
    lowered_ = true;
    fillers_.reserve(kSlots);
    for (int filler; (filler = ::dup(fd)) >= 0;) fillers_.push_back(filler);
    full_ = errno == EMFILE;
  }
  ~DescriptorTableFiller() { release(); }
  DescriptorTableFiller(const DescriptorTableFiller&) = delete;
  DescriptorTableFiller& operator=(const DescriptorTableFiller&) = delete;

  bool full() const { return full_; }

  void release() {
    for (const int filler : fillers_) ::close(filler);
    fillers_.clear();
    if (lowered_) ::setrlimit(RLIMIT_NOFILE, &saved_);
    lowered_ = false;
  }

 private:
  rlimit saved_{};
  bool lowered_ = false;
  bool full_ = false;
  std::vector<int> fillers_;
};

TEST(PredictionServer, AcceptResumesAfterDescriptorExhaustion) {
  ServerFixture fixture;
  // The client's socket exists before the table fills: connect() needs
  // no new descriptor, the server's accept() does.
  net::Socket client(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_GE(client.fd(), 0);
  client.set_recv_timeout(5.0);  // a listener that never resumes fails here
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  DescriptorTableFiller table(client.fd());
  ASSERT_TRUE(table.full());
  ASSERT_EQ(::connect(client.fd(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fixture.server->stats().accept_errors == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(fixture.server->stats().accept_errors, 1u);
  table.release();

  send(client, ping_request(1));
  std::optional<net::ResponseMessage> pong;
  ASSERT_NO_THROW(pong = receive(client)) << "the server stopped accepting";
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->id, 1u);
  EXPECT_EQ(fixture.server->stats().connections_accepted, 1u);
}

TEST(PredictionServer, DrainingTheBacklogCountsNoAcceptError) {
  // Each wake accepts until accept(0) finds nothing pending; that empty
  // answer is not an error.
  ServerFixture fixture;
  std::vector<net::Socket> clients;
  for (int i = 0; i < 3; ++i) clients.push_back(fixture.connect());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    send(clients[i], ping_request(i + 1));
    ASSERT_TRUE(receive(clients[i]).has_value());
  }
  net::RequestMessage stats;
  stats.kind = net::MessageKind::kStats;
  stats.id = 9;
  send(clients.front(), stats);
  const auto reply = receive(clients.front());
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->detail.find("accept_errors=0"), std::string::npos)
      << reply->detail;
  EXPECT_EQ(fixture.server->stats().accept_errors, 0u);
  EXPECT_EQ(fixture.server->stats().connections_accepted, 3u);
}

// ---------------------------------------------------------------------------
// Wire chaos applied by a live server. Each verdict fires with
// probability 1, so every outcome is certain.
// ---------------------------------------------------------------------------

/// A server whose options carry `chaos`; the policy outlives it.
struct ChaosFixture {
  net::ChaosPolicy chaos;
  ServerFixture fixture;

  explicit ChaosFixture(const net::ChaosConfig& config)
      : chaos(config), fixture(options_with(&chaos)) {}

  static ServerOptions options_with(const net::ChaosPolicy* chaos) {
    ServerOptions options;
    options.chaos = chaos;
    return options;
  }
};

/// Every byte the peer sends until it closes or resets the connection.
std::vector<std::uint8_t> read_until_closed(net::Socket& socket) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[256];
  for (;;) {
    const ssize_t got = ::recv(socket.fd(), buffer, sizeof(buffer), 0);
    if (got <= 0) return bytes;
    bytes.insert(bytes.end(), buffer, buffer + got);
  }
}

TEST(PredictionServer, AcceptResetChaosGivesEof) {
  net::ChaosConfig config;
  config.accept_reset_p = 1.0;
  ChaosFixture chaotic(config);
  net::Socket client = chaotic.fixture.connect();
  EXPECT_FALSE(receive(client).has_value());
  EXPECT_EQ(chaotic.chaos.stats().accept_resets, 1u);
  EXPECT_EQ(chaotic.fixture.server->stats().connections_accepted, 0u);
}

TEST(PredictionServer, TruncateChaosGivesAShortFrameThenEof) {
  net::ChaosConfig config;
  config.truncate_p = 1.0;
  ChaosFixture chaotic(config);
  net::Socket client = chaotic.fixture.connect();
  send(client, ping_request(1));
  // A pong carries no detail, so its frame size is fixed.
  const std::size_t pong_bytes =
      net::frame_wire(net::encode_response(net::ResponseMessage{})).size();
  EXPECT_EQ(read_until_closed(client).size(), pong_bytes / 2);
  EXPECT_EQ(chaotic.chaos.stats().write_truncates, 1u);
}

TEST(PredictionServer, ResetChaosGivesEof) {
  net::ChaosConfig config;
  config.reset_p = 1.0;
  ChaosFixture chaotic(config);
  net::Socket client = chaotic.fixture.connect();
  send(client, ping_request(1));
  EXPECT_FALSE(receive(client).has_value());
  EXPECT_EQ(chaotic.chaos.stats().write_resets, 1u);
  EXPECT_EQ(chaotic.fixture.server->stats().responses_dropped, 0u);
}

TEST(PredictionServer, DribbledWriteStillDecodes) {
  net::ChaosConfig config;
  config.dribble_s = 0.001;
  ChaosFixture chaotic(config);
  net::Socket client = chaotic.fixture.connect();
  send(client, predict_request(1, Method::kLqn, "AppServF", 300.0));
  const auto response = receive(client);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 1u);
  EXPECT_TRUE(response->ok()) << response->detail;
  EXPECT_GT(response->mean_rt_s, 0.0);
  EXPECT_EQ(chaotic.chaos.stats().dribbled_writes, 1u);
}

TEST(PredictionServer, AcceptDelayHoldsTheFirstAnswerBack) {
  net::ChaosConfig config;
  config.accept_delay_s = 0.1;
  // Draws are a pure function of (seed, stream, draw#): a twin policy's
  // first delay is the one the server will apply to its first session.
  const double delay_s = net::ChaosPolicy(config).accept_delay_s();
  ASSERT_GT(delay_s, 0.0);
  ChaosFixture chaotic(config);
  const auto start = std::chrono::steady_clock::now();
  net::Socket client = chaotic.fixture.connect();
  send(client, ping_request(1));
  ASSERT_TRUE(receive(client).has_value());
  const std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited.count(), delay_s);
  EXPECT_EQ(chaotic.chaos.stats().accept_delays, 1u);
}

// ---------------------------------------------------------------------------
// Reloads run on a worker; the loop keeps answering.
// ---------------------------------------------------------------------------

TEST(PredictionServer, ReloadRunsOnAWorkerWhileOtherSessionsAreAnswered) {
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  ServerOptions options;
  options.workers = 2;
  options.reload_handler = [released](const std::string&) {
    const bool freed = released.wait_for(std::chrono::seconds(30)) ==
                       std::future_status::ready;
    return ReloadStatus{false, freed ? "held, then released" : "never released"};
  };
  ServerFixture fixture(options);
  net::Socket reloader = fixture.connect();
  net::RequestMessage reload;
  reload.kind = net::MessageKind::kReload;
  reload.id = 1;
  send(reloader, reload);

  // The reload is parked in its handler; a ping on another session must
  // still come back.
  net::Socket other = fixture.connect();
  send(other, ping_request(2));
  const auto pong = receive(other);
  release.set_value();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->id, 2u);

  const auto ack = receive(reloader);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->id, 1u);
  EXPECT_EQ(ack->detail, "held, then released");
  EXPECT_EQ(fixture.server->stats().reloads_failed, 1u);
}

TEST(PredictionServer, ReloadIsShedWhenTheQueueIsFull) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.worker_delay_s = 0.5;
  options.reload_handler = [](const std::string&) {
    return ReloadStatus{true, "promoted"};
  };
  ServerFixture fixture(options);
  net::Socket client = fixture.connect();
  const auto wait_for = [&](auto done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!done(fixture.server->stats()) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  // The worker takes one miss and sleeps; a second miss fills the queue.
  send(client, predict_request(1, Method::kLqn, "AppServF", 410.0));
  wait_for([](const ServerStats& s) {
    return s.requests_enqueued == 1 && s.queue_depth == 0;
  });
  send(client, predict_request(2, Method::kLqn, "AppServF", 420.0));
  wait_for([](const ServerStats& s) { return s.queue_depth == 1; });
  ASSERT_EQ(fixture.server->stats().queue_depth, 1u);

  net::RequestMessage reload;
  reload.kind = net::MessageKind::kReload;
  reload.id = 3;
  send(client, reload);
  const auto shed = receive(client);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->id, 3u);
  EXPECT_EQ(shed->error_code, static_cast<std::uint8_t>(ErrorCode::kOverloaded));
  for (int i = 0; i < 2; ++i) {
    const auto response = receive(client);
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->ok()) << response->detail;
  }
  const ServerStats stats = fixture.server->stats();
  EXPECT_EQ(stats.requests_shed, 1u);
  EXPECT_EQ(stats.reloads_ok + stats.reloads_failed, 0u);
}

// ---------------------------------------------------------------------------
// Threads: the daemon's thread count does not grow with its sessions.
// ---------------------------------------------------------------------------

/// This process's thread count, from the `Threads:` line of
/// /proc/self/status; -1 when it cannot be read.
int process_threads() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

TEST(PredictionServer, ThreadCountIsTheSameForOneAndManySessions) {
  ServerOptions options;
  options.workers = 2;
  ServerFixture fixture(options);
  std::vector<net::Socket> sessions;
  // Open sessions up to n, each proven live by a ping round trip.
  const auto open_until = [&](std::size_t n) {
    while (sessions.size() < n) {
      sessions.push_back(fixture.connect());
      send(sessions.back(), ping_request(sessions.size()));
      ASSERT_TRUE(receive(sessions.back()).has_value());
    }
  };
  open_until(1);
  const int with_one = process_threads();
  open_until(32);
  const int with_many = process_threads();
  ASSERT_GT(with_one, 0) << "no Threads: line in /proc/self/status";
  EXPECT_EQ(with_many, with_one) << "threads grew with the open sessions";
  EXPECT_EQ(fixture.server->stats().open_sessions, 32u);
}

}  // namespace
}  // namespace epp::serve
