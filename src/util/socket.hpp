// Loopback stream sockets with length-prefixed framing — the byte transport
// under the multi-process control plane (score_scheduler <-> score_agent).
//
// Addresses:
//   "unix:/path/to/socket"  — AF_UNIX stream socket
//   "tcp:127.0.0.1:7000"    — AF_INET stream socket; loopback only (this is
//                             a single-machine scale harness, not a network
//                             service). Port 0 binds an ephemeral port;
//                             ServerSocket::address() reports the real one.
//
// Framing is a u32 little-endian length followed by that many bytes; the
// frame content is the task codec's self-validating format, so the transport
// stays dumb. The reader grows its buffer with the bytes that have arrived
// rather than sizing it from the length prefix. All I/O is blocking; short reads/writes are retried, EOF and
// errors throw std::runtime_error. TCP_NODELAY is set on TCP sockets — the
// control plane is request/response with small frames, exactly the pattern
// Nagle penalizes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace score::util {

/// A connected stream socket with u32-length-prefixed frame I/O.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connect to "unix:..." or "tcp:host:port". Retries refused connections
  /// until `timeout_s` elapses (agents may start before the scheduler
  /// listens); throws std::runtime_error on failure or timeout.
  static Socket connect(const std::string& address, double timeout_s = 0.0);

  bool valid() const { return fd_ >= 0; }
  void close();

  void write_frame(const std::vector<std::uint8_t>& bytes);
  /// Blocks for one frame; throws std::runtime_error on EOF or error.
  std::vector<std::uint8_t> read_frame();
  /// Blocks up to `timeout_s` for one frame (negative = forever). Returns
  /// std::nullopt on timeout. A frame partially received when the timeout
  /// fires is buffered and resumed by the next read call — a slow peer that
  /// dribbles bytes across many calls never corrupts the framing. Throws
  /// std::runtime_error on EOF or error.
  std::optional<std::vector<std::uint8_t>> read_frame_timeout(double timeout_s);

 private:
  int fd_ = -1;
  // Partial-frame receive state, carried across read_frame_timeout calls.
  std::uint8_t rx_header_[4] = {0, 0, 0, 0};
  std::size_t rx_got_ = 0;
  bool rx_have_header_ = false;
  std::vector<std::uint8_t> rx_payload_;
};

/// A listening socket bound to a loopback address.
class ServerSocket {
 public:
  ServerSocket() = default;
  ~ServerSocket();
  ServerSocket(ServerSocket&& other) noexcept;
  ServerSocket& operator=(ServerSocket&& other) noexcept;
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Bind + listen on "unix:..." (path must not exist or is replaced) or
  /// "tcp:host:port" (port 0 = ephemeral).
  static ServerSocket listen(const std::string& address);

  /// The bound address in the same "unix:..."/"tcp:..." syntax — with the
  /// real port for ephemeral TCP binds.
  const std::string& address() const { return address_; }

  /// Block for one connection.
  Socket accept();

  /// Wait up to `timeout_s` for one connection; nullopt on timeout. A
  /// negative timeout blocks forever (same as accept()).
  std::optional<Socket> accept_timeout(double timeout_s);

  bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  std::string address_;
  std::string unix_path_;  ///< unlinked on close
};

}  // namespace score::util
