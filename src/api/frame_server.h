// The ONE stream-framing path of the pmw::api wire protocol, shared by
// every deployment that puts codec frames on a byte stream: the
// Unix-domain SocketServer, the TcpServer, and their client transports.
// Framing policy (length-prefix walk, malformed-stream handling, reply
// write-back order) lives here once so adversarial-bytes behavior cannot
// diverge between Unix and TCP — the property tests/api_codec_test.cc
// pins is transport-independent. What a frame MEANS lives in one place
// too, ServerEndpoint::HandleFrame; the server here only moves bytes.
//
//   FrameServer
//   listener fd -> accept loop -> per-connection reader thread (frame
//   walk -> ServerEndpoint::HandleFrame, reply futures queued in arrival
//   order) + writer thread (encode replies as their futures resolve)
//
// Per-connection identity rides in the connection's ConnState
// (api/endpoint.h): the hello/auth exchange binds an analyst id to the
// connection, and HandleFrame enforces that every later frame speaks as
// that analyst. The state is owned by the connection's reader thread, so
// it needs no lock.

#ifndef PMWCM_API_FRAME_SERVER_H_
#define PMWCM_API_FRAME_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "api/endpoint.h"
#include "api/envelope.h"
#include "common/result.h"

namespace pmw {
namespace api {

// --- low-level stream helpers (shared with the client transports) ---------

/// send(2) until done; false on any unrecoverable error. MSG_NOSIGNAL:
/// a peer that hung up must surface as EPIPE, not a process-killing
/// SIGPIPE.
bool WriteAll(int fd, const char* data, size_t size);

/// Appends up to 64 KiB to *buffer; returns bytes read (0 on orderly
/// EOF, -1 on error).
ssize_t ReadSome(int fd, std::string* buffer);

/// Walks every complete frame at the front of `buffer`, invoking
/// on_frame(frame_bytes) per frame; returns the bytes consumed (trim
/// once, after the walk) and leaves the terminal framing state in
/// *final_status (kNeedMore: wait for bytes; kMalformed: drop the
/// connection).
size_t WalkFrames(std::string_view buffer, FrameStatus* final_status,
                  const std::function<void(std::string_view)>& on_frame);

// --- listener / connector helpers -----------------------------------------

/// Bound + listening Unix-domain socket fd (unlinks a stale path first).
Result<int> ListenUnix(const std::string& path);

/// Bound + listening TCP socket fd on `host` (IPv4 dotted-quad; no DNS —
/// deployments name explicit addresses). Port 0 selects an ephemeral
/// port; *bound_port receives the actual one either way.
Result<int> ListenTcp(const std::string& host, uint16_t port,
                      uint16_t* bound_port);

/// Connected stream fds, same address conventions.
Result<int> ConnectUnix(const std::string& path);
Result<int> ConnectTcp(const std::string& host, uint16_t port);

// --- the shared frame server ----------------------------------------------

/// Accept loop + per-connection reader/writer threads over an
/// already-listening socket, serving one ServerEndpoint. Address family
/// agnostic: SocketServer hands it a Unix listener, TcpServer a TCP one.
/// Counts the connection traffic into the endpoint's CodecCounters: bytes
/// read, reply frames and bytes written, and unrecoverable framing.
class FrameServer {
 public:
  /// `endpoint` must outlive the server.
  explicit FrameServer(ServerEndpoint* endpoint);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Takes ownership of `listen_fd` (bound + listening) and starts
  /// accepting.
  void Serve(int listen_fd);

  /// Stops accepting, closes every connection after its pending replies
  /// are written, joins all threads. Idempotent.
  void Shutdown();

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
    std::thread writer;
    std::mutex mutex;
    std::condition_variable cv;
    /// Reply futures in request-arrival order (the order the dispatcher
    /// resolves them).
    std::deque<std::future<AnswerEnvelope>> pending;
    bool reader_done = false;
    /// Live threads (reader + writer); 0 means the connection is over
    /// and the acceptor may reap it.
    std::atomic<int> active{2};
    ConnState state;
  };

  void AcceptLoop();
  void ReadLoop(Connection* connection);
  void WriteLoop(Connection* connection);
  /// Joins, closes, and erases connections whose threads have exited —
  /// a long-lived daemon must not accumulate one fd + two threads per
  /// departed client until Shutdown.
  void ReapFinished();

  ServerEndpoint* endpoint_;
  int listen_fd_ = -1;
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_mutex_;  // serializes Shutdown callers
  std::thread acceptor_;
  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_FRAME_SERVER_H_
