#include "net/frame.hpp"

#include <bit>

#include "util/annotations.hpp"

namespace epp::net {
namespace {

// --- little-endian byte writer/reader (endianness-independent) -----------

template <typename T>
void put_uint(std::vector<std::uint8_t>& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double value) {
  put_uint(out, std::bit_cast<std::uint64_t>(value));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& text) {
  if (text.size() > 0xFFFF)
    throw FrameError("frame string field longer than 65535 bytes");
  put_uint(out, static_cast<std::uint16_t>(text.size()));
  out.insert(out.end(), text.begin(), text.end());
}

struct Reader {
  const std::vector<std::uint8_t>& bytes;
  std::size_t cursor = 0;

  void need(std::size_t n) const {
    if (cursor + n > bytes.size())
      throw FrameError("truncated frame payload (" +
                       std::to_string(bytes.size()) + " bytes, need " +
                       std::to_string(cursor + n) + ")");
  }
  template <typename T>
  T uint() {
    need(sizeof(T));
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      value = static_cast<T>(value | static_cast<T>(bytes[cursor + i]) << (8 * i));
    cursor += sizeof(T);
    return value;
  }
  std::uint8_t u8() { return uint<std::uint8_t>(); }
  std::uint32_t u32() { return uint<std::uint32_t>(); }
  std::uint64_t u64() { return uint<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string string() {
    const std::uint16_t length = uint<std::uint16_t>();
    need(length);
    std::string text(bytes.begin() + static_cast<std::ptrdiff_t>(cursor),
                     bytes.begin() + static_cast<std::ptrdiff_t>(cursor + length));
    cursor += length;
    return text;
  }
  void done() const {
    if (cursor != bytes.size())
      throw FrameError("trailing bytes after frame payload");
  }
};

void check_version(std::uint8_t version) {
  if (version != kProtocolVersion)
    throw FrameError("protocol version mismatch: got " +
                     std::to_string(version) + ", want " +
                     std::to_string(kProtocolVersion));
}

}  // namespace

std::vector<std::uint8_t> encode_request(const RequestMessage& message) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + message.server.size());
  put_uint<std::uint8_t>(out, kProtocolVersion);
  put_uint<std::uint8_t>(out, static_cast<std::uint8_t>(message.kind));
  put_uint<std::uint64_t>(out, message.id);
  put_uint<std::uint8_t>(out, message.method);
  put_f64(out, message.browse_clients);
  put_f64(out, message.buy_clients);
  put_f64(out, message.think_time_s);
  put_f64(out, message.deadline_ms);
  put_f64(out, message.observed_rt_s);
  put_string(out, message.server);
  return out;
}

std::vector<std::uint8_t> encode_response(const ResponseMessage& message) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + message.detail.size());
  put_uint<std::uint8_t>(out, kProtocolVersion);
  put_uint<std::uint8_t>(out, 0);  // kind slot: unused in responses
  put_uint<std::uint64_t>(out, message.id);
  put_uint<std::uint8_t>(out, message.status);
  put_uint<std::uint8_t>(out, message.error_code);
  put_uint<std::uint8_t>(out, message.served_by);
  put_uint<std::uint8_t>(out, message.flags);
  put_uint<std::uint8_t>(out, message.health);
  put_uint<std::uint32_t>(out, message.retries);
  put_uint<std::uint64_t>(out, message.bundle_version);
  put_f64(out, message.mean_rt_s);
  put_f64(out, message.throughput_rps);
  put_f64(out, message.predictor_latency_s);
  put_string(out, message.detail);
  return out;
}

RequestMessage decode_request(const std::vector<std::uint8_t>& payload) {
  Reader reader{payload};
  check_version(reader.u8());
  const std::uint8_t kind = reader.u8();
  if (kind < static_cast<std::uint8_t>(MessageKind::kPredict) ||
      kind > static_cast<std::uint8_t>(MessageKind::kObserve))
    throw FrameError("unknown request kind " + std::to_string(kind));
  RequestMessage message;
  message.kind = static_cast<MessageKind>(kind);
  message.id = reader.u64();
  message.method = reader.u8();
  message.browse_clients = reader.f64();
  message.buy_clients = reader.f64();
  message.think_time_s = reader.f64();
  message.deadline_ms = reader.f64();
  message.observed_rt_s = reader.f64();
  message.server = reader.string();
  reader.done();
  return message;
}

ResponseMessage decode_response(const std::vector<std::uint8_t>& payload) {
  Reader reader{payload};
  check_version(reader.u8());
  (void)reader.u8();  // kind slot, unused on the response path
  ResponseMessage message;
  message.id = reader.u64();
  message.status = reader.u8();
  message.error_code = reader.u8();
  message.served_by = reader.u8();
  message.flags = reader.u8();
  message.health = reader.u8();
  message.retries = reader.u32();
  message.bundle_version = reader.u64();
  message.mean_rt_s = reader.f64();
  message.throughput_rps = reader.f64();
  message.predictor_latency_s = reader.f64();
  message.detail = reader.string();
  reader.done();
  return message;
}

EPP_HOT_BEGIN(frame_io);

bool write_frame(Socket& socket, const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> wire = frame_wire(payload);
  return socket.send_all(wire.data(), wire.size());
}

std::vector<std::uint8_t> frame_wire(const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes)
    throw FrameError("frame payload exceeds kMaxFrameBytes");
  std::vector<std::uint8_t> wire;
  wire.reserve(4 + payload.size());
  put_uint(wire, static_cast<std::uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

std::uint32_t decode_length_prefix(const std::uint8_t* prefix) {
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < kLengthPrefixBytes; ++i)
    length |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  if (length > kMaxFrameBytes)
    throw FrameError("incoming frame of " + std::to_string(length) +
                     " bytes exceeds the " + std::to_string(kMaxFrameBytes) +
                     "-byte limit");
  return length;
}

bool read_frame(Socket& socket, std::vector<std::uint8_t>& payload) {
  std::uint8_t header[kLengthPrefixBytes];
  if (!socket.recv_all(header, sizeof(header))) return false;
  const std::uint32_t length = decode_length_prefix(header);
  payload.resize(length);
  if (length > 0 && !socket.recv_all(payload.data(), length))
    throw SocketError("recv: peer closed mid-frame");
  return true;
}

EPP_HOT_END(frame_io);

}  // namespace epp::net
