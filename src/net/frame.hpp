// Length-prefixed binary protocol for the prediction service.
//
// Wire format, little-endian throughout:
//
//   frame    := u32 payload_length, payload
//   payload  := u8 version (kProtocolVersion), u8 kind, body
//
// Request body (every kind uses the same fixed layout; control kinds
// simply leave the workload fields zero):
//
//   u64 request_id          echoed verbatim in the response
//   u8  method              0 historical, 1 lqn, 2 hybrid
//   f64 browse_clients, buy_clients, think_time_s
//   f64 deadline_ms         0 = server default deadline
//   f64 observed_rt_s       kObserve: client-measured RT fed to the
//                           drift detector; 0 elsewhere (v2)
//   u16 server_len, bytes   target server architecture name; for kReload
//                           this carries the candidate bundle path
//                           (empty = re-read the server's configured path)
//
// Response body:
//
//   u64 request_id
//   u8  status              0 ok, 1 typed error (code below)
//   u8  error_code          svc::ErrorCode value when status != 0
//   u8  served_by           method that produced the prediction
//   u8  flags               bit0 fallback, bit1 stale, bit2 cached
//   u8  health              serve::HealthState value (v2)
//   u32 retries
//   u64 bundle_version      registry version that served the request (v2)
//   f64 mean_rt_s, throughput_rps
//   f64 predictor_latency_s server-side wall time inside the predictor
//   u16 detail_len, bytes   error detail / stats text
//
// Doubles travel as the little-endian bytes of their IEEE-754 bit
// pattern (std::bit_cast), so encode/decode round-trips exactly.
// Malformed payloads throw FrameError; oversized frames are refused at
// the read boundary (kMaxFrameBytes) so a corrupt length prefix cannot
// make the server allocate gigabytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace epp::net {

struct FrameError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

/// Message kinds. Control kinds share the request layout.
enum class MessageKind : std::uint8_t {
  kPredict = 1,   // evaluate one prediction request
  kPing = 2,      // liveness probe; response is an ok frame with no data
  kStats = 3,     // server + resilience counters as text in `detail`
  kShutdown = 4,  // begin graceful drain; acked before the server stops
  kReload = 5,    // promote the bundle named in `server` (v2)
  kObserve = 6,   // report a measured RT for drift detection (v2)
};

struct RequestMessage {
  MessageKind kind = MessageKind::kPredict;
  std::uint64_t id = 0;
  std::uint8_t method = 0;
  double browse_clients = 0.0;
  double buy_clients = 0.0;
  double think_time_s = 7.0;
  double deadline_ms = 0.0;     // 0 = server default
  double observed_rt_s = 0.0;   // kObserve: measured RT for this workload
  std::string server;           // architecture name / kReload bundle path
};

/// Response flag bits.
inline constexpr std::uint8_t kFlagFallback = 1;
inline constexpr std::uint8_t kFlagStale = 2;
inline constexpr std::uint8_t kFlagCached = 4;

struct ResponseMessage {
  std::uint64_t id = 0;
  std::uint8_t status = 0;      // 0 ok, 1 typed error
  std::uint8_t error_code = 0;  // svc::ErrorCode value when status != 0
  std::uint8_t served_by = 0;
  std::uint8_t flags = 0;
  std::uint8_t health = 0;      // serve::HealthState of the server
  std::uint32_t retries = 0;
  std::uint64_t bundle_version = 0;  // registry version that answered
  double mean_rt_s = 0.0;
  double throughput_rps = 0.0;
  double predictor_latency_s = 0.0;
  std::string detail;

  bool ok() const noexcept { return status == 0; }
};

std::vector<std::uint8_t> encode_request(const RequestMessage& message);
std::vector<std::uint8_t> encode_response(const ResponseMessage& message);

/// Decode a payload (the bytes after the length prefix). Throws
/// FrameError on version/kind/size mismatches.
RequestMessage decode_request(const std::vector<std::uint8_t>& payload);
ResponseMessage decode_response(const std::vector<std::uint8_t>& payload);

/// Write one frame (length prefix + payload). Returns false when the
/// peer has gone away.
bool write_frame(Socket& socket, const std::vector<std::uint8_t>& payload);

/// The exact bytes write_frame would put on the wire (length prefix +
/// payload). The chaos shim uses this to send *part* of a frame before
/// resetting, or to dribble a frame in paced chunks.
std::vector<std::uint8_t> frame_wire(const std::vector<std::uint8_t>& payload);

/// Bytes in a frame's length prefix.
inline constexpr std::size_t kLengthPrefixBytes = 4;

/// Decode the u32 length prefix at `prefix` (kLengthPrefixBytes bytes).
/// Throws FrameError when it announces more than kMaxFrameBytes, so no
/// reader ever sizes a buffer from an unchecked prefix.
std::uint32_t decode_length_prefix(const std::uint8_t* prefix);

/// Read one frame's payload. Returns false on clean EOF before a frame;
/// throws FrameError on an oversized length prefix and SocketError on
/// truncation mid-frame.
bool read_frame(Socket& socket, std::vector<std::uint8_t>& payload);

}  // namespace epp::net
