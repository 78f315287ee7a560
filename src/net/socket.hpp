// Thin RAII wrappers over POSIX TCP sockets for the serving stack:
// blocking stream sockets on loopback or LAN. A Socket owns one fd and
// moves like a unique_ptr; send_all/recv_all loop over partial transfers
// and EINTR, send uses MSG_NOSIGNAL (a peer that hung up is an error
// return, not SIGPIPE), and recv_some is the one non-blocking read, for
// a readiness loop. A Listener binds (port 0 picks an ephemeral port)
// and polls its fd plus a wake pipe, in accept() or in an owner's poll
// loop (fd(), wake_fd()); interrupt() wakes either from any thread —
// the whole graceful-shutdown story at the socket layer.
//
// Hard I/O failures throw SocketError; orderly peer shutdown is a normal
// return (recv_all -> false), because a client closing its connection is
// not an error for a server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace epp::net {

/// Unexpected socket-layer failure (bind/listen/connect errors, hard
/// send/recv errors). Message carries the failing call and errno text.
struct SocketError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A receive timed out (set_recv_timeout elapsed with no bytes): a
/// *silent* peer, not a broken one. Catch before SocketError.
struct SocketTimeout : SocketError {
  using SocketError::SocketError;
};

/// One connected TCP stream. Move-only; closes on destruction.
class Socket {
 public:
  Socket() noexcept = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Blocking connect to host:port; throws SocketError on failure.
  static Socket connect(const std::string& host, std::uint16_t port);

  int fd() const noexcept { return fd_; }

  /// Write exactly n bytes. Returns false when the peer has gone away
  /// (EPIPE / ECONNRESET); throws SocketError on other failures.
  bool send_all(const void* data, std::size_t n);
  /// Read exactly n bytes. Returns false on clean EOF *before the first
  /// byte*; throws SocketTimeout when an armed receive timeout elapses,
  /// SocketError on mid-message EOF or hard errors.
  bool recv_all(void* data, std::size_t n);
  /// One non-blocking read (MSG_DONTWAIT) of up to n bytes: the count
  /// read, 0 on EOF or a reset peer, -1 when nothing is ready. Throws
  /// SocketError on other failures.
  std::ptrdiff_t recv_some(void* data, std::size_t n);

  /// Arm a receive timeout (SO_RCVTIMEO): a recv_all that waits longer
  /// than this throws SocketTimeout. seconds <= 0 disarms. A client uses
  /// this to bound how long it waits on a silent server.
  void set_recv_timeout(double seconds) noexcept;

  /// Half-close the write side (peer sees EOF after draining).
  void shutdown_write() noexcept;
  /// Shut down both directions; wakes a recv_all parked in another thread.
  void shutdown_both() noexcept;
  /// Arm an abortive close: SO_LINGER{1,0} plus a full shutdown, so a
  /// poll or read on this socket sees EOF now and the eventual close()
  /// (destructor) discards unsent data and fires an RST at the peer
  /// instead of an orderly FIN. The fd is NOT closed here — that would
  /// race a concurrent poll or read with kernel fd reuse. This is how the
  /// chaos harness simulates a connection reset; never use it on a
  /// healthy session.
  void reset() noexcept;
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// A listening TCP socket with interruptible accept.
class Listener {
 public:
  /// Bind host:port (port 0 = ephemeral) and listen; throws SocketError.
  Listener(const std::string& host, std::uint16_t port, int backlog = 64);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound port (resolves port 0 to the kernel's choice).
  std::uint16_t port() const noexcept { return port_; }

  /// Wait up to timeout_ms (-1 = forever) for a connection (Socket);
  /// nullopt on timeout, after interrupt() or once the listener closes.
  std::optional<Socket> accept(int timeout_ms = -1);

  /// The listening fd and the wake pipe's read end, for an owner that
  /// polls them beside other fds and then calls accept(0).
  int fd() const noexcept { return fd_; }
  int wake_fd() const noexcept { return wake_read_; }

  /// Wake every blocked/future accept() into returning nullopt.
  /// Async-signal-safe (one write on the wake pipe).
  void interrupt() noexcept;

 private:
  int fd_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace epp::net
