#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>
#include <utility>

namespace epp::net {
namespace {

[[noreturn]] void raise(const char* call) {
  // std::strerror shares a static buffer across threads; the category
  // message is the thread-safe spelling of the same text.
  throw SocketError(std::string(call) + ": " +
                    std::generic_category().message(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw SocketError("inet_pton: not an IPv4 address: '" + host + "'");
  return addr;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Socket Socket::connect(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = make_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise("socket");
  Socket socket(fd);
  // Frames are small and latency matters more than packing efficiency.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return socket;
    if (errno == EINTR) continue;
    raise("connect");
  }
}

bool Socket::send_all(const void* data, std::size_t n) {
  const char* cursor = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd_, cursor, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      raise("send");
    }
    cursor += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool Socket::recv_all(void* data, std::size_t n) {
  char* cursor = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t received = ::recv(fd_, cursor + got, n - got, 0);
    if (received < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw SocketTimeout("recv: receive timeout elapsed");
      if (errno == ECONNRESET && got == 0) return false;
      raise("recv");
    }
    if (received == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw SocketError("recv: peer closed mid-message");
    }
    got += static_cast<std::size_t>(received);
  }
  return true;
}

std::ptrdiff_t Socket::recv_some(void* data, std::size_t n) {
  for (;;) {
    const ssize_t received = ::recv(fd_, data, n, MSG_DONTWAIT);
    if (received >= 0) return received;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    if (errno == ECONNRESET) return 0;
    raise("recv");
  }
}

void Socket::set_recv_timeout(double seconds) noexcept {
  if (fd_ < 0) return;
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;  // 0/0 would disarm
  }
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void Socket::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::reset() noexcept {
  if (fd_ < 0) return;
  // Linger with a zero timeout turns the eventual close() into an
  // abortive release: the kernel discards unsent data and fires an RST
  // at the peer. The shutdown wakes any poll or recv on the socket; the
  // fd itself stays open until the owner destroys the Socket, so no
  // concurrent reader can race a reused fd number.
  linger hard{1, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(const std::string& host, std::uint16_t port, int backlog) {
  sockaddr_in addr = make_addr(host, port);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) raise("socket");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const auto fail = [this](const char* call) {
    const int saved = errno;
    ::close(std::exchange(fd_, -1));
    errno = saved;
    raise(call);
  };
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail("bind");
  if (::listen(fd_, backlog) != 0) fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail("getsockname");
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) fail("pipe");
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
}

std::optional<Socket> Listener::accept(int timeout_ms) {
  for (;;) {
    pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    fds[1] = {wake_read_, POLLIN, 0};
    const int ready = ::poll(fds, 2, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      raise("poll");
    }
    if (ready == 0) return std::nullopt;  // timed out
    if ((fds[1].revents & POLLIN) != 0) return std::nullopt;  // interrupted
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      raise("accept");
    }
    const int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(client);
  }
}

void Listener::interrupt() noexcept {
  const char byte = 1;
  // One byte is enough: accept() never drains the pipe, so every future
  // accept() also sees it and returns immediately.
  [[maybe_unused]] const ssize_t rc = ::write(wake_write_, &byte, 1);
}

}  // namespace epp::net
