// The client-side channel abstraction of the pmw::api protocol.
//
// A Transport moves requests to a ServerEndpoint and envelopes back;
// api::Client supplies identity and correlation ids on top. Two
// implementations ship, and each serves every call:
//
//   * InProcessTransport (api/in_process_transport.h) — zero-copy
//     loopback straight into a ServerEndpoint in this process; an
//     optional verify-codec mode encodes every request as its wire frame
//     for the endpoint's frame handler (the one the socket servers use)
//     and round-trips every reply through the binary codec, to keep the
//     wire path honest in tests.
//   * StreamTransport (api/socket_transport.h) — frames over a stream
//     socket with client-side request correlation, so many calls may be
//     in flight on one connection: SocketTransport to a Unix-domain
//     SocketServer, TcpTransport to a TcpServer (the remote-analyst
//     path, which is why hello/auth frames exist).

#ifndef PMWCM_API_TRANSPORT_H_
#define PMWCM_API_TRANSPORT_H_

#include <future>
#include <utility>
#include <vector>

#include "api/envelope.h"

namespace pmw {
namespace api {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Ships `request` and resolves with the reply envelope. Never throws
  /// for protocol or channel failures — those come back as envelopes
  /// carrying taxonomy errors (kTransportError when the channel itself
  /// broke). Thread-safe; any number of calls may be in flight.
  virtual std::future<AnswerEnvelope> Send(QueryRequest request) = 0;

  /// Ships one batched request (request.query_names non-empty) as ONE
  /// frame and resolves with one envelope per name, positionally, at
  /// consecutive request ids.
  virtual std::vector<std::future<AnswerEnvelope>> SendBatch(
      QueryRequest request) = 0;

  /// Ships a typed stats/budget poll; resolves with an envelope whose
  /// message is the server's report and whose meta carries the live
  /// remaining-budget view.
  virtual std::future<AnswerEnvelope> SendStats(StatsRequest request) = 0;

  /// Ships a metrics scrape; resolves with an envelope whose message is
  /// the server registry's exposition (text or JSON per the request's
  /// format).
  virtual std::future<AnswerEnvelope> SendMetrics(MetricsRequest request) = 0;

  /// Ships a trace poll; resolves with an envelope whose message renders
  /// the server's slowest recorded span trees.
  virtual std::future<AnswerEnvelope> SendTrace(TraceRequest request) = 0;

  /// Ships the hello/auth frame that binds an analyst id to this
  /// connection (socket transports; see envelope.h). Base
  /// implementation: a trusted loopback has no connection to bind, so
  /// hello succeeds as a no-op — what InProcessTransport inherits.
  virtual std::future<AnswerEnvelope> SendHello(HelloRequest request) {
    AnswerEnvelope envelope;
    envelope.request_id = request.request_id;
    std::promise<AnswerEnvelope> promise;
    promise.set_value(std::move(envelope));
    return promise.get_future();
  }

  /// Closes the channel; in-flight calls resolve with kTransportError.
  /// Idempotent.
  virtual void Close() {}
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_TRANSPORT_H_
