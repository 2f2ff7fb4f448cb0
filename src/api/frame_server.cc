#include "api/frame_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace pmw {
namespace api {

// ---------------------------------------------------------------------------
// Stream helpers
// ---------------------------------------------------------------------------

bool WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

ssize_t ReadSome(int fd, std::string* buffer) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) buffer->append(chunk, static_cast<size_t>(n));
    return n;
  }
}

size_t WalkFrames(std::string_view buffer, FrameStatus* final_status,
                  const std::function<void(std::string_view)>& on_frame) {
  size_t offset = 0;
  size_t frame_size = 0;
  while ((*final_status = ExtractFrame(buffer.substr(offset), &frame_size)) ==
         FrameStatus::kFrame) {
    on_frame(buffer.substr(offset, frame_size));
    offset += frame_size;
  }
  return offset;
}

// ---------------------------------------------------------------------------
// Listener / connector helpers
// ---------------------------------------------------------------------------

namespace {

Status FillUnixAddress(const std::string& path, sockaddr_un* address) {
  std::memset(address, 0, sizeof(*address));
  address->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(address->sun_path)) {
    return MakeStatus(ErrorCode::kTransportError,
                      "socket path empty or longer than sun_path: " + path);
  }
  std::memcpy(address->sun_path, path.data(), path.size());
  return Status::Ok();
}

Status FillTcpAddress(const std::string& host, uint16_t port,
                      sockaddr_in* address) {
  std::memset(address, 0, sizeof(*address));
  address->sin_family = AF_INET;
  address->sin_port = htons(port);
  // Explicit dotted-quad only — deployments name concrete addresses,
  // and a resolver in the serving path would add a blocking dependency.
  if (::inet_pton(AF_INET, host.c_str(), &address->sin_addr) != 1) {
    return MakeStatus(ErrorCode::kTransportError,
                      "not an IPv4 dotted-quad address: " + host);
  }
  return Status::Ok();
}

}  // namespace

Result<int> ListenUnix(const std::string& path) {
  sockaddr_un address;
  Status addressed = FillUnixAddress(path, &address);
  if (!addressed.ok()) return addressed;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return MakeStatus(ErrorCode::kTransportError,
                      "socket() failed: " + std::string(strerror(errno)));
  }
  ::unlink(path.c_str());  // a stale path from a crashed predecessor
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    return MakeStatus(ErrorCode::kTransportError,
                      "bind/listen on " + path + " failed: " + why);
  }
  return fd;
}

Result<int> ListenTcp(const std::string& host, uint16_t port,
                      uint16_t* bound_port) {
  sockaddr_in address;
  Status addressed = FillTcpAddress(host, port, &address);
  if (!addressed.ok()) return addressed;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return MakeStatus(ErrorCode::kTransportError,
                      "socket() failed: " + std::string(strerror(errno)));
  }
  // A restarted front door must be able to rebind its port while the
  // previous process's connections still sit in TIME_WAIT.
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    return MakeStatus(ErrorCode::kTransportError,
                      "bind/listen on " + host + ":" + std::to_string(port) +
                          " failed: " + why);
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
        0) {
      const std::string why = strerror(errno);
      ::close(fd);
      return MakeStatus(ErrorCode::kTransportError,
                        "getsockname failed: " + why);
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un address;
  Status addressed = FillUnixAddress(path, &address);
  if (!addressed.ok()) return addressed;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return MakeStatus(ErrorCode::kTransportError,
                      "socket() failed: " + std::string(strerror(errno)));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    const std::string why = strerror(errno);
    ::close(fd);
    return MakeStatus(ErrorCode::kTransportError,
                      "connect(" + path + ") failed: " + why);
  }
  return fd;
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in address;
  Status addressed = FillTcpAddress(host, port, &address);
  if (!addressed.ok()) return addressed;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return MakeStatus(ErrorCode::kTransportError,
                      "socket() failed: " + std::string(strerror(errno)));
  }
  // Requests and replies are small latency-critical frames; Nagle
  // would delay pipelined round trips.
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    const std::string why = strerror(errno);
    ::close(fd);
    return MakeStatus(
        ErrorCode::kTransportError,
        "connect(" + host + ":" + std::to_string(port) + ") failed: " + why);
  }
  return fd;
}

// ---------------------------------------------------------------------------
// FrameServer
// ---------------------------------------------------------------------------

FrameServer::FrameServer(ServerEndpoint* endpoint) : endpoint_(endpoint) {
  PMW_CHECK(endpoint != nullptr);
}

FrameServer::~FrameServer() { Shutdown(); }

void FrameServer::Serve(int listen_fd) {
  PMW_CHECK_GE(listen_fd, 0);
  PMW_CHECK_MSG(listen_fd_ < 0 && !acceptor_.joinable(),
                "FrameServer::Serve called twice");
  listen_fd_ = listen_fd;
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

void FrameServer::ReapFinished() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->active.load(std::memory_order_acquire) == 0) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      if ((*it)->writer.joinable()) (*it)->writer.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void FrameServer::AcceptLoop() {
  for (;;) {
    // Poll with a timeout instead of blocking in accept(): departed
    // connections get reaped within ~500ms even when no new client ever
    // connects, not only on the next accept.
    pollfd listener{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&listener, 1, /*timeout_ms=*/500);
    ReapFinished();
    if (shutdown_.load(std::memory_order_acquire)) return;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) continue;  // timeout: reap-only pass
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (shutdown) or fatal: stop accepting
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = fd;
    raw->reader = std::thread([this, raw] { ReadLoop(raw); });
    raw->writer = std::thread([this, raw] { WriteLoop(raw); });
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(std::move(connection));
  }
}

void FrameServer::ReadLoop(Connection* connection) {
  CodecCounters& counters = endpoint_->codec_counters();
  std::string buffer;
  bool drop = false;
  while (!drop) {
    const ssize_t n = ReadSome(connection->fd, &buffer);
    if (n <= 0) break;  // EOF or error: peer hung up
    counters.bytes_in->Add(n);
    FrameStatus framing;
    const size_t consumed =
        WalkFrames(buffer, &framing, [&](std::string_view frame) {
          std::vector<std::future<AnswerEnvelope>> replies;
          endpoint_->HandleFrame(frame, &connection->state, &replies);
          {
            std::lock_guard<std::mutex> lock(connection->mutex);
            for (std::future<AnswerEnvelope>& reply : replies) {
              connection->pending.push_back(std::move(reply));
            }
          }
          connection->cv.notify_one();
        });
    buffer.erase(0, consumed);
    if (framing == FrameStatus::kMalformed) {
      // The length prefix itself is garbage: no way to resynchronize.
      counters.decode_errors->Add(1);
      drop = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->reader_done = true;
  }
  connection->cv.notify_one();
  connection->active.fetch_sub(1, std::memory_order_acq_rel);
}

void FrameServer::WriteLoop(Connection* connection) {
  CodecCounters& counters = endpoint_->codec_counters();
  std::string wire;
  for (;;) {
    std::future<AnswerEnvelope> next;
    {
      std::unique_lock<std::mutex> lock(connection->mutex);
      connection->cv.wait(lock, [connection] {
        return !connection->pending.empty() || connection->reader_done;
      });
      if (connection->pending.empty()) break;  // reader done and drained
      next = std::move(connection->pending.front());
      connection->pending.pop_front();
    }
    AnswerEnvelope envelope = next.get();
    wire.clear();
    EncodeAnswer(envelope, &wire);
    if (wire.size() > kMaxFramePayload + 4) {
      // The peer's ExtractFrame would reject this frame and drop the
      // whole connection; fail only the one reply instead.
      AnswerEnvelope oversized;
      oversized.request_id = envelope.request_id;
      oversized.error = ErrorCode::kInternal;
      oversized.message = "endpoint: answer exceeds the frame size limit";
      oversized.meta = envelope.meta;
      wire.clear();
      EncodeAnswer(oversized, &wire);
    }
    if (!WriteAll(connection->fd, wire.data(), wire.size())) break;
    counters.frames_encoded->Add(1);
    counters.bytes_out->Add(static_cast<long long>(wire.size()));
  }
  // Wakes a reader still blocked in read(); the reader is always the
  // other live thread, so `active` cannot reach 0 before it exits too.
  ::shutdown(connection->fd, SHUT_RDWR);
  connection->active.fetch_sub(1, std::memory_order_acq_rel);
}

void FrameServer::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shutdown_.exchange(true, std::memory_order_acq_rel)) return;
  if (listen_fd_ >= 0) {
    // Wake accept() and join the acceptor before closing, so the fd
    // number cannot be reused under it.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto& connection : connections_) {
    // Stop the reader (no new requests); the writer drains what's
    // pending — those replies resolve as long as the endpoint is still
    // up, which is why servers shut down before endpoints.
    ::shutdown(connection->fd, SHUT_RD);
    if (connection->reader.joinable()) connection->reader.join();
    if (connection->writer.joinable()) connection->writer.join();
    ::close(connection->fd);
  }
  connections_.clear();
}

}  // namespace api
}  // namespace pmw
