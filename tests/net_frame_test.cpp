// Wire protocol: encode/decode round-trips, malformed-payload rejection
// and framing over a real loopback socket pair, including frames that
// arrive split across or joined within segments.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hpp"

namespace epp::net {
namespace {

RequestMessage sample_request() {
  RequestMessage request;
  request.kind = MessageKind::kPredict;
  request.id = 0x0123456789ABCDEFULL;
  request.method = 2;
  request.browse_clients = 800.0;
  request.buy_clients = 200.0;
  request.think_time_s = 7.0;
  request.deadline_ms = 250.5;
  request.observed_rt_s = 0.3125;
  request.server = "AppServVF";
  return request;
}

ResponseMessage sample_response() {
  ResponseMessage response;
  response.id = 42;
  response.status = 1;
  response.error_code = 7;
  response.served_by = 1;
  response.flags = kFlagFallback | kFlagStale;
  response.health = 2;
  response.retries = 3;
  response.bundle_version = 0x1122334455667788ULL;
  response.mean_rt_s = 0.125;
  response.throughput_rps = 96.5;
  response.predictor_latency_s = 0.0005;
  response.detail = "transient fault persisted";
  return response;
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(NetFrame, RequestRoundTripsExactly) {
  const RequestMessage request = sample_request();
  const RequestMessage decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.kind, request.kind);
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.method, request.method);
  // Doubles travel as IEEE-754 bit patterns: exact, not approximate.
  EXPECT_EQ(decoded.browse_clients, request.browse_clients);
  EXPECT_EQ(decoded.buy_clients, request.buy_clients);
  EXPECT_EQ(decoded.think_time_s, request.think_time_s);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.observed_rt_s, request.observed_rt_s);
  EXPECT_EQ(decoded.server, request.server);
}

TEST(NetFrame, ResponseRoundTripsExactly) {
  const ResponseMessage response = sample_response();
  const ResponseMessage decoded = decode_response(encode_response(response));
  EXPECT_EQ(decoded.id, response.id);
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.error_code, response.error_code);
  EXPECT_EQ(decoded.served_by, response.served_by);
  EXPECT_EQ(decoded.flags, response.flags);
  EXPECT_EQ(decoded.health, response.health);
  EXPECT_EQ(decoded.retries, response.retries);
  EXPECT_EQ(decoded.bundle_version, response.bundle_version);
  EXPECT_EQ(decoded.mean_rt_s, response.mean_rt_s);
  EXPECT_EQ(decoded.throughput_rps, response.throughput_rps);
  EXPECT_EQ(decoded.predictor_latency_s, response.predictor_latency_s);
  EXPECT_EQ(decoded.detail, response.detail);
  EXPECT_FALSE(decoded.ok());
}

TEST(NetFrame, ControlKindsRoundTrip) {
  for (const MessageKind kind :
       {MessageKind::kPing, MessageKind::kStats, MessageKind::kShutdown,
        MessageKind::kReload, MessageKind::kObserve}) {
    RequestMessage request;
    request.kind = kind;
    request.id = 9;
    EXPECT_EQ(decode_request(encode_request(request)).kind, kind);
  }
}

TEST(NetFrame, ReloadCarriesTheCandidatePathInTheServerField) {
  RequestMessage reload;
  reload.kind = MessageKind::kReload;
  reload.id = 4;
  reload.server = "artifacts/refit.epp";
  const RequestMessage decoded = decode_request(encode_request(reload));
  EXPECT_EQ(decoded.kind, MessageKind::kReload);
  EXPECT_EQ(decoded.server, "artifacts/refit.epp");
}

TEST(NetFrame, ObserveCarriesTheMeasuredResponseTime) {
  RequestMessage observe = sample_request();
  observe.kind = MessageKind::kObserve;
  observe.observed_rt_s = 1.75;
  const RequestMessage decoded = decode_request(encode_request(observe));
  EXPECT_EQ(decoded.kind, MessageKind::kObserve);
  EXPECT_EQ(decoded.observed_rt_s, 1.75);
}

TEST(NetFrame, FrameWireIsTheLengthPrefixedPayload) {
  // frame_wire is what the chaos truncation path cuts in half: it must
  // be byte-identical to what write_frame puts on the socket.
  const std::vector<std::uint8_t> payload = encode_request(sample_request());
  const std::vector<std::uint8_t> wire = frame_wire(payload);
  ASSERT_EQ(wire.size(), payload.size() + 4);
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  EXPECT_EQ(wire[0], static_cast<std::uint8_t>(length & 0xFF));
  EXPECT_EQ(wire[1], static_cast<std::uint8_t>((length >> 8) & 0xFF));
  EXPECT_EQ(wire[2], static_cast<std::uint8_t>((length >> 16) & 0xFF));
  EXPECT_EQ(wire[3], static_cast<std::uint8_t>((length >> 24) & 0xFF));
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), wire.begin() + 4));
}

TEST(NetFrame, LengthPrefixDecodesLittleEndianUpToTheLimit) {
  const std::vector<std::uint8_t> wire = frame_wire(encode_request(sample_request()));
  EXPECT_EQ(decode_length_prefix(wire.data()), wire.size() - kLengthPrefixBytes);
  const auto prefix_of = [](std::uint32_t length) {
    return std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(length), static_cast<std::uint8_t>(length >> 8),
        static_cast<std::uint8_t>(length >> 16), static_cast<std::uint8_t>(length >> 24)};
  };
  EXPECT_EQ(decode_length_prefix(prefix_of(kMaxFrameBytes).data()), kMaxFrameBytes);
  EXPECT_THROW(decode_length_prefix(prefix_of(kMaxFrameBytes + 1).data()), FrameError);
  EXPECT_THROW(decode_length_prefix(prefix_of(0xFFFFFFFFu).data()), FrameError);
}

// ---------------------------------------------------------------------------
// Malformed payloads.
// ---------------------------------------------------------------------------

TEST(NetFrame, RejectsWrongVersion) {
  std::vector<std::uint8_t> payload = encode_request(sample_request());
  payload[0] = kProtocolVersion + 1;
  EXPECT_THROW(decode_request(payload), FrameError);
}

TEST(NetFrame, RejectsUnknownKind) {
  std::vector<std::uint8_t> payload = encode_request(sample_request());
  payload[1] = 99;
  EXPECT_THROW(decode_request(payload), FrameError);
}

TEST(NetFrame, RejectsTruncationAndTrailingBytes) {
  std::vector<std::uint8_t> payload = encode_request(sample_request());
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 3);
  EXPECT_THROW(decode_request(truncated), FrameError);
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_THROW(decode_request(padded), FrameError);
  EXPECT_THROW(decode_request({}), FrameError);
  // A string length pointing past the payload end must not read past it.
  std::vector<std::uint8_t> lying = payload;
  lying[lying.size() - sample_request().server.size() - 2] = 0xFF;
  EXPECT_THROW(decode_request(lying), FrameError);
}

TEST(NetFrame, RejectsTruncatedResponse) {
  std::vector<std::uint8_t> payload = encode_response(sample_response());
  std::vector<std::uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_THROW(decode_response(truncated), FrameError);
}

// ---------------------------------------------------------------------------
// Framing over a real socket pair.
// ---------------------------------------------------------------------------

struct LoopbackPair {
  Listener listener{"127.0.0.1", 0};
  Socket client;
  Socket server;

  LoopbackPair() {
    std::thread connector(
        [this] { client = Socket::connect("127.0.0.1", listener.port()); });
    std::optional<Socket> accepted = listener.accept();
    connector.join();
    EXPECT_TRUE(accepted.has_value());
    server = std::move(*accepted);
  }
};

TEST(NetFrame, FramesTravelAcrossLoopback) {
  LoopbackPair pair;
  ASSERT_TRUE(write_frame(pair.client, encode_request(sample_request())));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(pair.server, payload));
  EXPECT_EQ(decode_request(payload).server, "AppServVF");

  ASSERT_TRUE(write_frame(pair.server, encode_response(sample_response())));
  ASSERT_TRUE(read_frame(pair.client, payload));
  EXPECT_EQ(decode_response(payload).retries, 3u);
}

TEST(NetFrame, CleanEofReadsAsFalse) {
  LoopbackPair pair;
  pair.client.shutdown_write();
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(read_frame(pair.server, payload));
}

TEST(NetFrame, OversizedLengthPrefixIsRefusedBeforeAllocation) {
  LoopbackPair pair;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  const std::uint8_t header[4] = {
      static_cast<std::uint8_t>(huge & 0xFF),
      static_cast<std::uint8_t>((huge >> 8) & 0xFF),
      static_cast<std::uint8_t>((huge >> 16) & 0xFF),
      static_cast<std::uint8_t>((huge >> 24) & 0xFF)};
  ASSERT_TRUE(pair.client.send_all(header, sizeof header));
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(read_frame(pair.server, payload), FrameError);
}

TEST(NetFrame, TruncationMidFrameThrows) {
  LoopbackPair pair;
  const std::vector<std::uint8_t> encoded = encode_request(sample_request());
  const std::uint32_t length = static_cast<std::uint32_t>(encoded.size());
  const std::uint8_t header[4] = {
      static_cast<std::uint8_t>(length & 0xFF),
      static_cast<std::uint8_t>((length >> 8) & 0xFF),
      static_cast<std::uint8_t>((length >> 16) & 0xFF),
      static_cast<std::uint8_t>((length >> 24) & 0xFF)};
  ASSERT_TRUE(pair.client.send_all(header, sizeof header));
  ASSERT_TRUE(pair.client.send_all(encoded.data(), encoded.size() / 2));
  pair.client.shutdown_write();  // peer dies mid-frame
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(read_frame(pair.server, payload), SocketError);
}

// ---------------------------------------------------------------------------
// Frame boundaries that do not match segment boundaries.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> request_wire(std::uint64_t id) {
  RequestMessage request = sample_request();
  request.id = id;
  return frame_wire(encode_request(request));
}

std::vector<std::uint8_t> concat(const std::vector<std::uint8_t>& a,
                                 const std::vector<std::uint8_t>& b) {
  std::vector<std::uint8_t> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

TEST(NetFrame, FramesCoalescedInOneSegmentAreReadInOrder) {
  LoopbackPair pair;
  const std::vector<std::uint8_t> wire =
      concat(concat(request_wire(1), request_wire(2)), request_wire(3));
  ASSERT_TRUE(pair.client.send_all(wire.data(), wire.size()));
  pair.client.shutdown_write();
  std::vector<std::uint8_t> payload;
  // Three frames in one segment come out whole and in order, then EOF.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(read_frame(pair.server, payload)) << id;
    EXPECT_EQ(decode_request(payload).id, id);
  }
  EXPECT_FALSE(read_frame(pair.server, payload));
}

TEST(NetFrame, FrameSentOneByteAtATimeIsReassembled) {
  LoopbackPair pair;
  const std::vector<std::uint8_t> wire = request_wire(7);
  std::thread dribbler([&] {
    for (const std::uint8_t byte : wire) {
      ASSERT_TRUE(pair.client.send_all(&byte, 1));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::uint8_t> payload;
  const bool got = read_frame(pair.server, payload);
  dribbler.join();
  ASSERT_TRUE(got);
  EXPECT_EQ(decode_request(payload).id, 7u);
  EXPECT_EQ(decode_request(payload).server, "AppServVF");
}

TEST(NetFrame, FrameSpanningManySegmentsIsReadWhole) {
  LoopbackPair pair;
  // Several times loopback's 64 KiB segment size: many recvs per frame.
  const std::vector<std::uint8_t> big(3 * 65536 + 5, 0xA5);
  std::thread writer([&] { ASSERT_TRUE(write_frame(pair.client, big)); });
  std::vector<std::uint8_t> payload;
  const bool got = read_frame(pair.server, payload);
  writer.join();
  ASSERT_TRUE(got);
  EXPECT_EQ(payload, big);
}

TEST(NetFrame, OversizedPrefixBehindAGoodFrameIsStillRefused) {
  LoopbackPair pair;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  const std::vector<std::uint8_t> oversized{
      static_cast<std::uint8_t>(huge & 0xFF),
      static_cast<std::uint8_t>((huge >> 8) & 0xFF),
      static_cast<std::uint8_t>((huge >> 16) & 0xFF),
      static_cast<std::uint8_t>((huge >> 24) & 0xFF)};
  const std::vector<std::uint8_t> wire = concat(request_wire(1), oversized);
  ASSERT_TRUE(pair.client.send_all(wire.data(), wire.size()));
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(pair.server, payload));
  EXPECT_THROW(read_frame(pair.server, payload), FrameError);
}

TEST(NetFrame, EofInsideTheLengthPrefixThrows) {
  LoopbackPair pair;
  const std::vector<std::uint8_t> wire = request_wire(1);
  ASSERT_TRUE(pair.client.send_all(wire.data(), 2));
  pair.client.shutdown_write();
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(read_frame(pair.server, payload), SocketError);
}

TEST(NetFrame, TimeoutWithAPartialFrameReadThrowsSocketTimeout) {
  LoopbackPair pair;
  pair.server.set_recv_timeout(0.05);
  const std::vector<std::uint8_t> wire = request_wire(1);
  // The prefix and half the payload arrive; the rest never does, and
  // the peer stays connected.
  ASSERT_TRUE(pair.client.send_all(wire.data(), 4 + (wire.size() - 4) / 2));
  std::vector<std::uint8_t> payload;
  EXPECT_THROW(read_frame(pair.server, payload), SocketTimeout);
}

TEST(NetFrame, MovedSocketKeepsItsUnreadFrames) {
  LoopbackPair pair;
  const std::vector<std::uint8_t> wire =
      concat(request_wire(1), concat(request_wire(2), request_wire(3)));
  ASSERT_TRUE(pair.client.send_all(wire.data(), wire.size()));
  pair.client.shutdown_write();
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(pair.server, payload));
  EXPECT_EQ(decode_request(payload).id, 1u);

  // Frames 2 and 3 are still unread: moving the connection must not
  // lose them.
  Socket moved(std::move(pair.server));
  ASSERT_TRUE(read_frame(moved, payload));
  EXPECT_EQ(decode_request(payload).id, 2u);
  Socket assigned;
  assigned = std::move(moved);
  ASSERT_TRUE(read_frame(assigned, payload));
  EXPECT_EQ(decode_request(payload).id, 3u);
  EXPECT_FALSE(read_frame(assigned, payload));
}

TEST(NetFrame, RecvSomeReportsNothingReadyDataAndEof) {
  Listener listener("127.0.0.1", 0);
  Socket client = Socket::connect("127.0.0.1", listener.port());
  std::optional<Socket> server = listener.accept();
  ASSERT_TRUE(server.has_value());
  std::uint8_t buffer[16];
  EXPECT_EQ(server->recv_some(buffer, sizeof(buffer)), -1);  // nothing yet
  const std::uint8_t sent[3] = {1, 2, 3};
  ASSERT_TRUE(client.send_all(sent, sizeof(sent)));
  client.shutdown_write();
  std::size_t got = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::ptrdiff_t n = -1;
  while ((n = server->recv_some(buffer + got, sizeof(buffer) - got)) != 0 &&
         std::chrono::steady_clock::now() < deadline)
    if (n > 0) got += static_cast<std::size_t>(n);
  EXPECT_EQ(n, 0) << "EOF never read";
  ASSERT_EQ(got, sizeof(sent));
  EXPECT_TRUE(std::equal(sent, sent + 3, buffer));
}

TEST(NetFrame, AcceptWithATimeoutReturnsEmptyWhenNothingIsPending) {
  Listener listener("127.0.0.1", 0);
  EXPECT_FALSE(listener.accept(0).has_value());
  EXPECT_FALSE(listener.accept(20).has_value());
  Socket client = Socket::connect("127.0.0.1", listener.port());
  EXPECT_TRUE(listener.accept(10000).has_value());
}

TEST(NetFrame, ListenerInterruptUnblocksAccept) {
  Listener listener("127.0.0.1", 0);
  std::optional<Socket> result;
  std::thread acceptor([&] { result = listener.accept(); });
  listener.interrupt();
  acceptor.join();
  EXPECT_FALSE(result.has_value());
  // interrupt() is sticky: later accepts return immediately too.
  EXPECT_FALSE(listener.accept().has_value());
}

}  // namespace
}  // namespace epp::net
