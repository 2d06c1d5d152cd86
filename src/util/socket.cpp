#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace score::util {

namespace {

constexpr std::size_t kMaxFrameBytes = 1u << 28;
// The receive buffer grows with the bytes that have actually arrived (to at
// most twice them, or this first chunk): a length prefix alone never sizes an
// allocation, so a hostile or corrupted header cannot make the reader reserve
// up to kMaxFrameBytes for a frame that never comes.
constexpr std::size_t kRxChunkBytes = 64u << 10;

std::size_t frame_length(const std::uint8_t (&header)[4]) {
  return static_cast<std::size_t>(header[0]) |
         (static_cast<std::size_t>(header[1]) << 8) |
         (static_cast<std::size_t>(header[2]) << 16) |
         (static_cast<std::size_t>(header[3]) << 24);
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("socket: " + what + " (" +
                           std::strerror(errno) + ")");
}

struct ParsedAddress {
  bool is_unix = false;
  std::string path;  // unix
  std::string host;  // tcp
  std::uint16_t port = 0;
};

ParsedAddress parse_address(const std::string& address) {
  ParsedAddress out;
  if (address.rfind("unix:", 0) == 0) {
    out.is_unix = true;
    out.path = address.substr(5);
    if (out.path.empty()) {
      throw std::runtime_error("socket: empty unix path in '" + address + "'");
    }
    if (out.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::runtime_error("socket: unix path too long in '" + address +
                               "'");
    }
    return out;
  }
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw std::runtime_error("socket: expected tcp:host:port in '" + address +
                               "'");
    }
    out.host = rest.substr(0, colon);
    const long port = std::strtol(rest.c_str() + colon + 1, nullptr, 10);
    if (port < 0 || port > 65535) {
      throw std::runtime_error("socket: port out of range in '" + address + "'");
    }
    out.port = static_cast<std::uint16_t>(port);
    return out;
  }
  throw std::runtime_error(
      "socket: address must start with unix: or tcp: — got '" + address + "'");
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that died mid-run must surface as EPIPE for the
    // recovery path, not kill the scheduler with SIGPIPE.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

}  // namespace

// ---- Socket -----------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_),
      rx_got_(other.rx_got_),
      rx_have_header_(other.rx_have_header_),
      rx_payload_(std::move(other.rx_payload_)) {
  std::copy(other.rx_header_, other.rx_header_ + 4, rx_header_);
  other.fd_ = -1;
  other.rx_got_ = 0;
  other.rx_have_header_ = false;
  other.rx_payload_.clear();
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    rx_got_ = other.rx_got_;
    rx_have_header_ = other.rx_have_header_;
    rx_payload_ = std::move(other.rx_payload_);
    std::copy(other.rx_header_, other.rx_header_ + 4, rx_header_);
    other.fd_ = -1;
    other.rx_got_ = 0;
    other.rx_have_header_ = false;
    other.rx_payload_.clear();
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_got_ = 0;
  rx_have_header_ = false;
  rx_payload_.clear();
}

Socket Socket::connect(const std::string& address, double timeout_s) {
  const ParsedAddress parsed = parse_address(address);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  auto backoff = std::chrono::milliseconds(10);
  while (true) {
    int fd = -1;
    int rc = -1;
    if (parsed.is_unix) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) fail("socket() failed");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, parsed.path.c_str(),
                   sizeof(addr.sun_path) - 1);
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) fail("socket() failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(parsed.port);
      if (::inet_pton(AF_INET, parsed.host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::runtime_error("socket: bad tcp host '" + parsed.host + "'");
      }
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    }
    if (rc == 0) {
      if (!parsed.is_unix) set_nodelay(fd);
      return Socket(fd);
    }
    const int saved = errno;
    ::close(fd);
    // The scheduler may not be listening yet: retry refused/absent endpoints
    // with exponential backoff until the deadline.
    const bool retryable = saved == ECONNREFUSED || saved == ENOENT;
    if (!retryable || std::chrono::steady_clock::now() >= deadline) {
      errno = saved;
      fail("connect to '" + address + "' failed");
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(500));
  }
}

void Socket::write_frame(const std::vector<std::uint8_t>& bytes) {
  if (fd_ < 0) throw std::runtime_error("socket: write on closed socket");
  if (bytes.size() > kMaxFrameBytes) {
    throw std::runtime_error("socket: frame too large");
  }
  std::uint8_t header[4];
  const auto len = static_cast<std::uint32_t>(bytes.size());
  header[0] = static_cast<std::uint8_t>(len);
  header[1] = static_cast<std::uint8_t>(len >> 8);
  header[2] = static_cast<std::uint8_t>(len >> 16);
  header[3] = static_cast<std::uint8_t>(len >> 24);
  write_all(fd_, header, sizeof(header));
  if (!bytes.empty()) write_all(fd_, bytes.data(), bytes.size());
}

std::vector<std::uint8_t> Socket::read_frame() {
  std::optional<std::vector<std::uint8_t>> frame = read_frame_timeout(-1.0);
  // Negative timeout blocks until a frame or an error — never nullopt.
  return std::move(*frame);
}

std::optional<std::vector<std::uint8_t>> Socket::read_frame_timeout(
    double timeout_s) {
  if (fd_ < 0) throw std::runtime_error("socket: read on closed socket");
  const bool forever = timeout_s < 0.0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(forever ? 0.0 : timeout_s);
  while (true) {
    // Drain available bytes without blocking, resuming any partial frame
    // carried in rx_* from an earlier timed-out call.
    while (true) {
      std::uint8_t* dst = nullptr;
      std::size_t want = 0;
      if (!rx_have_header_) {
        dst = rx_header_ + rx_got_;
        want = sizeof(rx_header_) - rx_got_;
      } else {
        const std::size_t len = frame_length(rx_header_);
        if (rx_got_ == rx_payload_.size() && rx_got_ < len) {
          rx_payload_.resize(
              std::min(len, std::max(2 * rx_got_, kRxChunkBytes)));
        }
        dst = rx_payload_.data() + rx_got_;
        want = rx_payload_.size() - rx_got_;
      }
      if (want == 0) break;  // payload complete (possibly zero-length)
      const ssize_t n = ::recv(fd_, dst, want, MSG_DONTWAIT);
      if (n > 0) {
        rx_got_ += static_cast<std::size_t>(n);
        if (!rx_have_header_ && rx_got_ == sizeof(rx_header_)) {
          if (frame_length(rx_header_) > kMaxFrameBytes) {
            throw std::runtime_error("socket: incoming frame too large");
          }
          rx_have_header_ = true;
          rx_got_ = 0;
          rx_payload_.clear();
        }
        continue;
      }
      if (n == 0) {
        if (rx_have_header_ || rx_got_ > 0) {
          throw std::runtime_error("socket: peer closed mid-frame");
        }
        throw std::runtime_error("socket: peer closed");
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail("read failed");
    }
    if (rx_have_header_ && rx_got_ == frame_length(rx_header_)) {
      std::vector<std::uint8_t> out = std::move(rx_payload_);
      rx_payload_.clear();
      rx_have_header_ = false;
      rx_got_ = 0;
      return out;
    }
    // Nothing more buffered: wait for readability up to the deadline.
    int wait_ms = -1;
    if (!forever) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return std::nullopt;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
      wait_ms = static_cast<int>(std::max<std::int64_t>(1, left.count()));
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail("poll failed");
    }
    if (rc == 0 && !forever) return std::nullopt;
  }
}

// ---- ServerSocket -----------------------------------------------------------

ServerSocket::~ServerSocket() { close(); }

ServerSocket::ServerSocket(ServerSocket&& other) noexcept
    : fd_(other.fd_),
      address_(std::move(other.address_)),
      unix_path_(std::move(other.unix_path_)) {
  other.fd_ = -1;
  other.unix_path_.clear();
}

ServerSocket& ServerSocket::operator=(ServerSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    address_ = std::move(other.address_);
    unix_path_ = std::move(other.unix_path_);
    other.fd_ = -1;
    other.unix_path_.clear();
  }
  return *this;
}

void ServerSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

ServerSocket ServerSocket::listen(const std::string& address) {
  const ParsedAddress parsed = parse_address(address);
  ServerSocket server;
  if (parsed.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail("socket() failed");
    ::unlink(parsed.path.c_str());  // replace a stale socket file
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, parsed.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fail("bind to '" + address + "' failed");
    }
    server.fd_ = fd;
    server.address_ = address;
    server.unix_path_ = parsed.path;
  } else {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket() failed");
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(parsed.port);
    if (::inet_pton(AF_INET, parsed.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("socket: bad tcp host '" + parsed.host + "'");
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fail("bind to '" + address + "' failed");
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
        0) {
      ::close(fd);
      fail("getsockname failed");
    }
    server.fd_ = fd;
    server.address_ =
        "tcp:" + parsed.host + ":" + std::to_string(ntohs(bound.sin_port));
  }
  if (::listen(server.fd_, 64) != 0) {
    fail("listen on '" + address + "' failed");
  }
  return server;
}

Socket ServerSocket::accept() {
  if (fd_ < 0) throw std::runtime_error("socket: accept on closed socket");
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      if (unix_path_.empty()) set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    fail("accept failed");
  }
}

std::optional<Socket> ServerSocket::accept_timeout(double timeout_s) {
  if (fd_ < 0) throw std::runtime_error("socket: accept on closed socket");
  const bool forever = timeout_s < 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(forever ? 0.0 : timeout_s));
  while (true) {
    int wait_ms = -1;
    if (!forever) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return std::nullopt;
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
      wait_ms = static_cast<int>(std::max<std::int64_t>(1, left.count()));
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail("poll failed");
    }
    if (rc == 0) {
      if (!forever) return std::nullopt;
      continue;
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      if (unix_path_.empty()) set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;
    }
    fail("accept failed");
  }
}

}  // namespace score::util
