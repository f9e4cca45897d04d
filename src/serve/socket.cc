#include "src/serve/socket.h"

#include <utility>

#include "src/util/string_util.h"

namespace lockdoc {

namespace {

// How long idle waits (for a connection's next frame, for the next accept)
// run before re-checking the stop flag.
constexpr uint64_t kStopPollMs = 100;

}  // namespace

ServeSocketServer::ServeSocketServer(ServeService* service, ServeSocketOptions options)
    : service_(service), options_(std::move(options)) {}

ServeSocketServer::~ServeSocketServer() { Stop(); }

Status ServeSocketServer::Start() {
  auto listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener.value());
  auto port = BoundPort(listener_.get());
  if (!port.ok()) {
    return port.status();
  }
  port_ = port.value();
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ServeSocketServer::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  listener_.Reset();
  // Handlers notice stop_ at their next idle tick; in-flight requests
  // finish and flush first (graceful drain).
  std::list<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) {
      connection->thread.join();
    }
  }
}

void ServeSocketServer::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) {
        (*it)->thread.join();
      }
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void ServeSocketServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    ReapFinishedConnections();
    auto readable = WaitReadable(listener_.get(), kStopPollMs);
    if (!readable.ok()) {
      return;  // Listener broke; Stop() still joins us cleanly.
    }
    if (!readable.value()) {
      continue;
    }
    auto conn = AcceptConnection(listener_.get());
    if (!conn.ok()) {
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ >= options_.max_connections) {
      continue;  // conn closes on scope exit: accept-and-shed beyond the cap.
    }
    ++active_;
    const uint64_t conn_id = next_conn_id_++;
    connections_.push_back(std::make_unique<Connection>());
    Connection* slot = connections_.back().get();
    slot->thread = std::thread(
        [this, conn_id, slot](UniqueFd fd) {
          HandleConnection(std::move(fd), conn_id, slot);
        },
        std::move(conn.value()));
  }
}

void ServeSocketServer::HandleConnection(UniqueFd fd, uint64_t conn_id, Connection* slot) {
  uint64_t sequence = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    FrameRead frame =
        ReadFrame(fd.get(), kStopPollMs, options_.read_deadline_ms, options_.max_frame_bytes);
    if (frame.status == FrameStatus::kIdle) {
      continue;
    }
    if (frame.status == FrameStatus::kOversized) {
      // Same taxonomy as the spool's oversized quarantine; the payload was
      // never read, so the stream cannot be resynced — answer and close.
      ServeResponseMeta meta;
      meta.ok = false;
      meta.kind = kServeErrorOversized;
      meta.error = frame.error;
      WriteFrames(fd.get(), {FormatResponseMeta(meta), std::string_view()});
      break;
    }
    if (frame.status != FrameStatus::kOk) {
      // kClosed: clean end. kTimeout: partial-frame peer, drop it.
      // kError: peer died mid-frame or socket trouble.
      break;
    }
    const std::string id = StrFormat("socket-%llu-%llu",
                                     static_cast<unsigned long long>(conn_id),
                                     static_cast<unsigned long long>(sequence++));
    ServeService::ServeAnswer answer = service_->AnswerFromText(id, frame.payload);
    // The meta frame and the output frame leave in one write.
    if (!WriteFrames(fd.get(), {FormatResponseMeta(answer.meta),
                                answer.meta.ok ? std::string_view(answer.text)
                                               : std::string_view()})
             .ok()) {
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
  }
  slot->finished.store(true, std::memory_order_release);
}

}  // namespace lockdoc
