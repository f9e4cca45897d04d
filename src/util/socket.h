// Minimal TCP plumbing for the serve socket front-end: RAII file
// descriptors, bind/listen/connect helpers, poll-based readiness waits, and
// length-prefixed frame I/O.
//
// The framing is deliberately tiny: one frame is a 4-byte big-endian
// payload length followed by that many payload bytes. It exists only to
// delimit the existing key=value request/response texts on a byte stream —
// the protocol semantics live entirely in src/serve/request.*, which both
// the file spool and the socket share verbatim.
//
// Every blocking operation is deadline-aware (poll + EINTR retry loops):
// a long-lived service must never let one stalled peer wedge a worker.
// Writes use MSG_NOSIGNAL so a peer that died mid-response surfaces as an
// EPIPE Status instead of killing the process.
#ifndef SRC_UTIL_SOCKET_H_
#define SRC_UTIL_SOCKET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "src/util/status.h"

namespace lockdoc {

// Owns one file descriptor; closes on destruction (EINTR-safe).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset(other.Release());
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

// Splits "HOST:PORT" (e.g. "127.0.0.1:7077", "0.0.0.0:0"). Strict: both
// parts required, the port must be a decimal in [0, 65535]. Port 0 asks
// the kernel for an ephemeral port (tests); BoundPort reports the result.
Status ParseHostPort(std::string_view spec, std::string* host, uint16_t* port);

// Binds an IPv4 listening socket on host:port (SO_REUSEADDR, backlog 64).
Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port);

// The locally-bound port of a listening socket (resolves port 0).
Result<uint16_t> BoundPort(int fd);

// Blocking IPv4 connect, for the `lockdoc query` client and tests.
Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port);

// Waits up to timeout_ms for `fd` to become readable. False on timeout.
Result<bool> WaitReadable(int fd, uint64_t timeout_ms);

// accept() with EINTR retry once the listener is readable; callers gate
// with WaitReadable so a Stop() can interrupt the accept loop.
Result<UniqueFd> AcceptConnection(int listen_fd);

// Outcome of one ReadFrame call; the payload is valid only for kOk.
enum class FrameStatus {
  kOk,        // A complete frame was read.
  kIdle,      // No header byte within idle_wait_ms; poll stop and retry.
  kClosed,    // Peer closed cleanly before the first header byte.
  kTimeout,   // The deadline expired mid-frame (partial-frame peer).
  kOversized, // The header announced more than max_payload_bytes.
  kError,     // Socket error; `error` has the detail.
};

struct FrameRead {
  FrameStatus status = FrameStatus::kError;
  std::string payload;
  std::string error;
};

// Reads one length-prefixed frame. `deadline_ms` bounds the time from the
// first header byte to frame completion (0 = no deadline); the wait for
// the first byte itself is bounded by `idle_wait_ms` so callers can poll a
// stop flag between frames. An oversized announcement is detected from the
// header alone — the payload is never read, the connection must be closed.
FrameRead ReadFrame(int fd, uint64_t idle_wait_ms, uint64_t deadline_ms,
                    uint64_t max_payload_bytes);

// Writes one length-prefixed frame per payload, in order, with one
// sendmsg over an iovec of headers and payloads (no copy; EINTR and
// partial-write loops, MSG_NOSIGNAL). Handing the whole message to the
// kernel at once keeps Nagle's algorithm from holding its tail back until
// the peer's delayed ACK of its head. Payloads above 4 GiB - 1 cannot be
// represented and error before anything is sent.
Status WriteFrames(int fd, std::initializer_list<std::string_view> payloads);

// WriteFrames with one payload.
Status WriteFrame(int fd, std::string_view payload);

}  // namespace lockdoc

#endif  // SRC_UTIL_SOCKET_H_
