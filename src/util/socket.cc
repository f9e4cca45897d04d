#include "src/util/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <vector>

#include "src/util/string_util.h"

namespace lockdoc {

namespace {

using Clock = std::chrono::steady_clock;

Status ErrnoStatus(const char* what) {
  return Status::Error(StrFormat("%s: %s", what, std::strerror(errno)));
}

// Remaining milliseconds until `deadline`, clamped to >= 0. A deadline of
// Clock::time_point::max() means "unbounded" and maps to a long poll slice
// (re-armed each loop) so the arithmetic below never overflows.
int RemainingMs(Clock::time_point deadline) {
  if (deadline == Clock::time_point::max()) {
    return 1000;
  }
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  if (left.count() <= 0) {
    return 0;
  }
  if (left.count() > 1000) {
    return 1000;
  }
  return static_cast<int>(left.count());
}

// Reads exactly `want` bytes before `deadline`. Returns: 1 ok, 0 clean EOF
// (only when nothing was read yet and `eof_ok`), -1 timeout, -2 error.
int ReadExact(int fd, char* buffer, size_t want, Clock::time_point deadline, bool eof_ok,
              std::string* error) {
  size_t have = 0;
  while (have < want) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    int slice = RemainingMs(deadline);
    if (slice == 0 && deadline != Clock::time_point::max()) {
      return -1;
    }
    int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = StrFormat("poll: %s", std::strerror(errno));
      return -2;
    }
    if (ready == 0) {
      if (deadline != Clock::time_point::max() && RemainingMs(deadline) == 0) {
        return -1;
      }
      continue;
    }
    ssize_t got = ::recv(fd, buffer + have, want - have, 0);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = StrFormat("recv: %s", std::strerror(errno));
      return -2;
    }
    if (got == 0) {
      if (have == 0 && eof_ok) {
        return 0;
      }
      *error = "peer closed mid-frame";
      return -2;
    }
    have += static_cast<size_t>(got);
  }
  return 1;
}

}  // namespace

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) {
    int rc;
    do {
      rc = ::close(fd_);
    } while (rc != 0 && errno == EINTR);
  }
  fd_ = fd;
}

Status ParseHostPort(std::string_view spec, std::string* host, uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::Error("expected HOST:PORT");
  }
  std::string_view port_text = spec.substr(colon + 1);
  uint32_t value = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::Error("port: expected a decimal number");
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 65535) {
      return Status::Error("port: out of range (0-65535)");
    }
  }
  *host = std::string(spec.substr(0, colon));
  *port = static_cast<uint16_t>(value);
  return Status::Ok();
}

Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Error(StrFormat("listen host '%s': expected an IPv4 address",
                                   host.c_str()));
  }
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return ErrnoStatus("socket");
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd.get(), 64) != 0) {
    return ErrnoStatus("listen");
  }
  return fd;
}

Result<uint16_t> BoundPort(int fd) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  return ntohs(addr.sin_port);
}

Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Error(StrFormat("host '%s': expected an IPv4 address", host.c_str()));
  }
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return ErrnoStatus("socket");
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return ErrnoStatus("connect");
  }
  return fd;
}

Result<bool> WaitReadable(int fd, uint64_t timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    int slice = left.count() <= 0 ? 0 : static_cast<int>(left.count());
    int ready = ::poll(&pfd, 1, slice);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("poll");
    }
    return ready > 0;
  }
}

Result<UniqueFd> AcceptConnection(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      return UniqueFd(fd);
    }
    if (errno == EINTR) {
      continue;
    }
    return ErrnoStatus("accept");
  }
}

FrameRead ReadFrame(int fd, uint64_t idle_wait_ms, uint64_t deadline_ms,
                    uint64_t max_payload_bytes) {
  FrameRead out;

  // Idle gate: wait briefly for the first header byte so the caller can
  // check its stop flag between frames.
  auto readable = WaitReadable(fd, idle_wait_ms);
  if (!readable.ok()) {
    out.status = FrameStatus::kError;
    out.error = readable.status().message();
    return out;
  }
  if (!readable.value()) {
    out.status = FrameStatus::kIdle;
    return out;
  }

  // Once the first byte exists, the whole frame must land by the deadline.
  const auto deadline = deadline_ms == 0
                            ? Clock::time_point::max()
                            : Clock::now() + std::chrono::milliseconds(deadline_ms);
  char header[4];
  int rc = ReadExact(fd, header, sizeof(header), deadline, /*eof_ok=*/true, &out.error);
  if (rc == 0) {
    out.status = FrameStatus::kClosed;
    return out;
  }
  if (rc == -1) {
    out.status = FrameStatus::kTimeout;
    return out;
  }
  if (rc < 0) {
    out.status = FrameStatus::kError;
    return out;
  }
  const uint64_t length = (static_cast<uint64_t>(static_cast<unsigned char>(header[0])) << 24) |
                          (static_cast<uint64_t>(static_cast<unsigned char>(header[1])) << 16) |
                          (static_cast<uint64_t>(static_cast<unsigned char>(header[2])) << 8) |
                          static_cast<uint64_t>(static_cast<unsigned char>(header[3]));
  if (max_payload_bytes != 0 && length > max_payload_bytes) {
    out.status = FrameStatus::kOversized;
    out.error = StrFormat("frame announces %llu bytes, limit is %llu",
                          static_cast<unsigned long long>(length),
                          static_cast<unsigned long long>(max_payload_bytes));
    return out;
  }
  out.payload.resize(length);
  if (length > 0) {
    rc = ReadExact(fd, out.payload.data(), length, deadline, /*eof_ok=*/false, &out.error);
    if (rc == -1) {
      out.status = FrameStatus::kTimeout;
      out.payload.clear();
      return out;
    }
    if (rc < 0) {
      out.status = FrameStatus::kError;
      out.payload.clear();
      return out;
    }
  }
  out.status = FrameStatus::kOk;
  return out;
}

Status WriteFrames(int fd, std::initializer_list<std::string_view> payloads) {
  // Each frame is its 4-byte header plus its payload: two iovec entries.
  std::vector<std::array<char, 4>> headers(payloads.size());
  std::vector<iovec> iov;
  iov.reserve(2 * payloads.size());
  size_t i = 0;
  for (std::string_view payload : payloads) {
    if (payload.size() > 0xffffffffull) {
      return Status::Error("frame payload exceeds the 32-bit length prefix");
    }
    const uint32_t length = static_cast<uint32_t>(payload.size());
    headers[i] = {static_cast<char>((length >> 24) & 0xff),
                  static_cast<char>((length >> 16) & 0xff),
                  static_cast<char>((length >> 8) & 0xff), static_cast<char>(length & 0xff)};
    iov.push_back({headers[i].data(), headers[i].size()});
    iov.push_back({const_cast<char*>(payload.data()), payload.size()});
    ++i;
  }
  // One sendmsg per attempt; a partial write advances past the bytes sent
  // and resends the rest.
  size_t next = 0;
  while (next < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + next;
    msg.msg_iovlen = iov.size() - next;
    ssize_t wrote = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("sendmsg");
    }
    size_t sent = static_cast<size_t>(wrote);
    while (next < iov.size() && sent >= iov[next].iov_len) {
      sent -= iov[next].iov_len;
      ++next;
    }
    if (sent > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + sent;
      iov[next].iov_len -= sent;
    }
  }
  return Status::Ok();
}

Status WriteFrame(int fd, std::string_view payload) { return WriteFrames(fd, {payload}); }

}  // namespace lockdoc
