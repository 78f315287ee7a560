// BundleRegistry: the gated hot-swap promotion path. Covers the EPP-SEM
// gate (semantically broken candidates rejected, incumbent untouched —
// the automatic-rollback contract), refcounted version lifetime, and
// the end-to-end hot-swap scenario: a server under sustained load swaps
// bundles mid-flight with zero dropped in-flight requests and no
// response ever mixing relationships across versions.
#include "serve/registry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calib/bundle.hpp"
#include "lint/diagnostic.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"
#include "svc/resilient.hpp"

namespace epp::serve {
namespace {

calib::CalibrationBundle corpus(const char* relative) {
  return calib::load_bundle(std::string(EPP_LINT_CORPUS_DIR) + "/" + relative);
}

/// The clean golden artifact: must pass the gate.
calib::CalibrationBundle clean_bundle() { return corpus("clean/trade.epp"); }

/// Structurally valid but semantically broken (EPP-SEM-001: a curve
/// piece goes negative): must be *rejected* by the gate.
calib::CalibrationBundle broken_bundle() {
  return corpus("semantic/negative_upper.epp");
}

// ---------------------------------------------------------------------------
// Promotion and the gate.
// ---------------------------------------------------------------------------

TEST(BundleRegistry, StartsEmptyAndPromotesTheFirstCandidate) {
  BundleRegistry registry;
  EXPECT_EQ(registry.active(), nullptr);
  EXPECT_EQ(registry.active_version(), 0u);

  const PromotionResult result = registry.promote(clean_bundle(), "trade.epp");
  ASSERT_TRUE(result.accepted) << result.message;
  EXPECT_EQ(result.active_version, 1u);
  EXPECT_FALSE(result.findings.has_errors());

  const auto active = registry.active();
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->version, 1u);
  EXPECT_EQ(active->source, "trade.epp");
  ASSERT_NE(active->resilient, nullptr);
  EXPECT_EQ(registry.stats().promotions, 1u);
}

TEST(BundleRegistry, GateRejectsSemanticallyBrokenCandidate) {
  // The heart of the reload safety story: a candidate that *parses* but
  // encodes a negative prediction curve must never reach serving. The
  // incumbent keeps answering — rejection IS the rollback.
  BundleRegistry registry;
  ASSERT_TRUE(registry.promote(clean_bundle(), "v1").accepted);
  const auto incumbent = registry.active();

  const PromotionResult result =
      registry.promote(broken_bundle(), "refit/bad.epp");
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.active_version, 1u);
  EXPECT_TRUE(result.findings.has_errors());
  EXPECT_NE(result.message.find("rejected by the EPP-SEM gate"),
            std::string::npos)
      << result.message;
  bool saw_curve_rule = false;
  for (const lint::Diagnostic& finding : result.findings.all())
    if (finding.rule.rfind("EPP-SEM-00", 0) == 0) saw_curve_rule = true;
  EXPECT_TRUE(saw_curve_rule) << "rejection did not cite a curve rule";

  // Identical active version object: the swap never happened.
  EXPECT_EQ(registry.active(), incumbent);
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.rejections, 1u);
  EXPECT_EQ(stats.active_version, 1u);
}

TEST(BundleRegistry, GateOffPromotesWhatTheGateWouldReject) {
  // The escape hatch for tests (and only tests): with the gate disabled
  // the same broken candidate swaps in. Documents that the *gate* is
  // what stands between a bad refit and production.
  RegistryOptions options;
  options.gate = false;
  BundleRegistry registry(options);
  const PromotionResult result = registry.promote(broken_bundle(), "bad");
  EXPECT_TRUE(result.accepted) << result.message;
  EXPECT_EQ(registry.active_version(), 1u);
}

TEST(BundleRegistry, RejectionBeforeFirstPromotionLeavesNothingActive) {
  BundleRegistry registry;
  const PromotionResult result = registry.promote(broken_bundle(), "bad");
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.active_version, 0u);
  EXPECT_EQ(registry.active(), nullptr);
}

// ---------------------------------------------------------------------------
// Version lifetime.
// ---------------------------------------------------------------------------

TEST(BundleRegistry, PinsKeepSupersededVersionsAlive) {
  BundleRegistry registry;
  ASSERT_TRUE(registry.promote(clean_bundle(), "v1").accepted);
  const std::shared_ptr<const ServingVersion> pin = registry.active();
  ASSERT_TRUE(registry.promote(clean_bundle(), "v2").accepted);
  // The in-flight pin still holds a fully working version 1.
  EXPECT_EQ(pin->version, 1u);
  ASSERT_NE(pin->resilient, nullptr);
  EXPECT_EQ(registry.active_version(), 2u);
}

// ---------------------------------------------------------------------------
// Hot swap under live load: the acceptance scenario.
// ---------------------------------------------------------------------------

net::RequestMessage lqn_predict(std::uint64_t id, double clients) {
  net::RequestMessage request;
  request.kind = net::MessageKind::kPredict;
  request.id = id;
  request.method = static_cast<std::uint8_t>(svc::Method::kLqn);
  request.browse_clients = clients;
  request.server = "AppServF";
  return request;
}

std::optional<net::ResponseMessage> receive(net::Socket& socket) {
  std::vector<std::uint8_t> payload;
  if (!net::read_frame(socket, payload)) return std::nullopt;
  return net::decode_response(payload);
}

TEST(BundleRegistry, HotSwapUnderLoadPinsVersionsAndDropsNothing) {
  // Two gate-clean bundles whose LQN relationships disagree (the second
  // doubles the app-server CPU demand, so every kLqn mean RT moves).
  // Pipeline a burst against version 1, promote version 2 while that
  // burst is still queued behind a slow worker, then pipeline a second
  // burst. Every request must be answered (zero dropped in-flight), the
  // first burst must be served *entirely* by version 1's relationships
  // even though version 2 was active when most of it was evaluated, and
  // the second burst entirely by version 2's — no response may ever mix
  // a version number with the other version's prediction.
  calib::CalibrationBundle slow = clean_bundle();
  slow.lqn.browse.app_demand_s *= 2.0;
  slow.lqn.buy.app_demand_s *= 2.0;

  BundleRegistry registry;
  ASSERT_TRUE(registry.promote(clean_bundle(), "fast").accepted);

  ServerOptions options;
  options.workers = 1;
  options.worker_delay_s = 0.01;  // keep the first burst in flight
  PredictionServer server(registry, options);
  server.start();
  net::Socket client = net::Socket::connect("127.0.0.1", server.port());

  constexpr std::uint64_t kBurst = 10;
  constexpr double kClients = 480.0;

  // Reference prediction from version 1 (first response, same workload).
  ASSERT_TRUE(
      net::write_frame(client, net::encode_request(lqn_predict(1, kClients))));
  const auto reference = receive(client);
  ASSERT_TRUE(reference.has_value());
  ASSERT_TRUE(reference->ok()) << reference->detail;
  ASSERT_EQ(reference->bundle_version, 1u);
  const double v1_rt = reference->mean_rt_s;

  // Burst 1: admitted (and version-pinned) before the swap...
  for (std::uint64_t id = 2; id <= 1 + kBurst; ++id)
    ASSERT_TRUE(net::write_frame(client,
                                 net::encode_request(lqn_predict(id, kClients))));
  // ... give the reader time to admit everything (admission is instant;
  // the slow worker is what keeps the burst in flight) ...
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ... then promote mid-flight.
  ASSERT_TRUE(registry.promote(std::move(slow), "slow").accepted);
  EXPECT_EQ(registry.active_version(), 2u);

  // Burst 2: admitted strictly after the swap.
  for (std::uint64_t id = 100; id < 100 + kBurst; ++id)
    ASSERT_TRUE(net::write_frame(client,
                                 net::encode_request(lqn_predict(id, kClients))));

  std::map<std::uint64_t, net::ResponseMessage> responses;
  for (std::uint64_t i = 0; i < 2 * kBurst; ++i) {
    const auto response = receive(client);
    ASSERT_TRUE(response.has_value()) << "response " << i << " dropped";
    responses.emplace(response->id, *response);
  }
  ASSERT_EQ(responses.size(), 2 * kBurst) << "in-flight requests were dropped";

  double v2_rt = 0.0;
  for (const auto& [id, response] : responses) {
    ASSERT_TRUE(response.ok()) << id << ": " << response.detail;
    if (id <= 1 + kBurst) {
      EXPECT_EQ(response.bundle_version, 1u) << id;
      EXPECT_EQ(response.mean_rt_s, v1_rt)
          << "request " << id << " pinned to v1 answered with foreign "
          << "relationships";
    } else {
      EXPECT_EQ(response.bundle_version, 2u) << id;
      if (v2_rt == 0.0) v2_rt = response.mean_rt_s;
      EXPECT_EQ(response.mean_rt_s, v2_rt)
          << "request " << id << " mixed versions mid-swap";
    }
  }
  // The two versions are actually distinguishable — otherwise the
  // equality assertions above prove nothing.
  EXPECT_NE(v2_rt, v1_rt);
  EXPECT_GT(v2_rt, v1_rt) << "doubled CPU demand must slow the prediction";

  server.stop();
  EXPECT_EQ(server.stats().responses_dropped, 0u);
}

}  // namespace
}  // namespace epp::serve
