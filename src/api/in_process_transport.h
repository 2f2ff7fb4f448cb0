// Zero-copy loopback transport: Client and ServerEndpoint in one process.
//
// The fast path hands the QueryRequest struct straight to the endpoint —
// no serialization, no copy of the answer vector on the way back (the
// future is the endpoint's own). This is the deployment an embedded
// analyst library uses, and the baseline the bench gate measures protocol
// overhead against (bench_frontend: api layer within 10% of direct
// Dispatcher::Submit).
//
// verify_codec mode instead encodes every request as its wire frame and
// hands it to ServerEndpoint::HandleFrame — the same frame handler the
// socket servers use — then round-trips every reply through the binary
// codec, so tests exercise the exact byte path the socket transport uses
// without a socket; codec traffic lands in the endpoint's CodecCounters.
// The loopback is a trusted caller: the frame handler applies no
// hello/auth gate to it, in either mode.

#ifndef PMWCM_API_IN_PROCESS_TRANSPORT_H_
#define PMWCM_API_IN_PROCESS_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "api/endpoint.h"
#include "api/transport.h"

namespace pmw {
namespace api {

class InProcessTransport : public Transport {
 public:
  /// `endpoint` must outlive the transport.
  explicit InProcessTransport(ServerEndpoint* endpoint,
                              bool verify_codec = false);

  std::future<AnswerEnvelope> Send(QueryRequest request) override;

  /// Batched loopback: the whole batch is handed (or, in verify-codec
  /// mode, encoded as the ONE batched frame) to the endpoint — the same
  /// single-frame shape the socket transport puts on the wire.
  std::vector<std::future<AnswerEnvelope>> SendBatch(
      QueryRequest request) override;

  std::future<AnswerEnvelope> SendStats(StatsRequest request) override;
  std::future<AnswerEnvelope> SendMetrics(MetricsRequest request) override;
  std::future<AnswerEnvelope> SendTrace(TraceRequest request) override;

 private:
  /// Verify-codec mode: hands one encoded request frame to the endpoint's
  /// frame handler as a trusted caller and round-trips each reply through
  /// VerifyReply. A frame that does not decode answers each of the
  /// `count` ids from `first_id` on with the handler's typed error.
  std::vector<std::future<AnswerEnvelope>> ServeFrame(const std::string& wire,
                                                      uint64_t first_id,
                                                      size_t count);

  /// A stats/metrics/trace poll: answered by `serve` directly, or in
  /// verify-codec mode encoded by `encode` and passed to ServeFrame.
  template <typename Request>
  std::future<AnswerEnvelope> Poll(
      const Request& request,
      AnswerEnvelope (ServerEndpoint::*serve)(const Request&),
      void (*encode)(const Request&, std::string*));

  /// Wraps a served reply future so collecting it round-trips the
  /// envelope through the binary codec (verify-codec mode).
  std::future<AnswerEnvelope> VerifyReply(
      std::future<AnswerEnvelope> served);

  ServerEndpoint* endpoint_;
  const bool verify_codec_;
};

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_IN_PROCESS_TRANSPORT_H_
