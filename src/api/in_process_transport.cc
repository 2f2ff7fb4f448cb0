#include "api/in_process_transport.h"

#include <string>
#include <utility>

#include "api/codec.h"
#include "common/check.h"

namespace pmw {
namespace api {

InProcessTransport::InProcessTransport(ServerEndpoint* endpoint,
                                       bool verify_codec)
    : endpoint_(endpoint), verify_codec_(verify_codec) {
  PMW_CHECK(endpoint != nullptr);
}

std::future<AnswerEnvelope> InProcessTransport::VerifyReply(
    std::future<AnswerEnvelope> served) {
  CodecCounters& counters = endpoint_->codec_counters();
  return std::async(
      std::launch::deferred,
      [&counters, inner = std::move(served)]() mutable {
        AnswerEnvelope envelope = inner.get();
        std::string reply;
        EncodeAnswer(envelope, &reply);
        counters.frames_encoded->Add(1);
        counters.bytes_out->Add(static_cast<long long>(reply.size()));
        Result<AnswerEnvelope> decoded_reply = DecodeAnswer(reply);
        PMW_CHECK_MSG(decoded_reply.ok(),
                      "answer failed to round-trip the codec: "
                          << decoded_reply.status().ToString());
        counters.frames_decoded->Add(1);
        return std::move(decoded_reply).value();
      });
}

std::vector<std::future<AnswerEnvelope>> InProcessTransport::ServeFrame(
    const std::string& wire, uint64_t first_id, size_t count) {
  CodecCounters& counters = endpoint_->codec_counters();
  counters.frames_encoded->Add(1);
  counters.bytes_in->Add(static_cast<long long>(wire.size()));
  std::vector<std::future<AnswerEnvelope>> served;
  // Null connection state: a trusted in-process caller, no auth gate.
  const bool decoded = endpoint_->HandleFrame(wire, nullptr, &served);
  std::vector<std::future<AnswerEnvelope>> replies;
  replies.reserve(count);
  if (!decoded) {
    // The handler answered the frame once, without the id it could not
    // recover; every id the frame carried gets that typed error.
    const AnswerEnvelope rejected = served.front().get();
    for (size_t i = 0; i < count; ++i) {
      AnswerEnvelope envelope = rejected;
      envelope.request_id = first_id + i;
      std::promise<AnswerEnvelope> promise;
      promise.set_value(std::move(envelope));
      replies.push_back(promise.get_future());
    }
    return replies;
  }
  for (std::future<AnswerEnvelope>& reply : served) {
    replies.push_back(VerifyReply(std::move(reply)));
  }
  return replies;
}

template <typename Request>
std::future<AnswerEnvelope> InProcessTransport::Poll(
    const Request& request,
    AnswerEnvelope (ServerEndpoint::*serve)(const Request&),
    void (*encode)(const Request&, std::string*)) {
  if (verify_codec_) {
    std::string wire;
    encode(request, &wire);
    return std::move(ServeFrame(wire, request.request_id, 1).front());
  }
  std::promise<AnswerEnvelope> promise;
  promise.set_value((endpoint_->*serve)(request));
  return promise.get_future();
}

std::future<AnswerEnvelope> InProcessTransport::Send(QueryRequest request) {
  if (!verify_codec_) {
    return endpoint_->Handle(std::move(request));
  }
  std::string wire;
  EncodeRequest(request, &wire);
  return std::move(ServeFrame(wire, request.request_id, 1).front());
}

std::vector<std::future<AnswerEnvelope>> InProcessTransport::SendBatch(
    QueryRequest request) {
  if (!verify_codec_) {
    return endpoint_->HandleBatch(std::move(request));
  }
  // The batch crosses the wire as its real shape — ONE request frame
  // carrying every name — then fans out server-side.
  std::string wire;
  EncodeRequest(request, &wire);
  return ServeFrame(wire, request.request_id, request.query_names.size());
}

std::future<AnswerEnvelope> InProcessTransport::SendStats(
    StatsRequest request) {
  return Poll(request, &ServerEndpoint::HandleStats, &EncodeStatsRequest);
}

std::future<AnswerEnvelope> InProcessTransport::SendMetrics(
    MetricsRequest request) {
  return Poll(request, &ServerEndpoint::HandleMetrics, &EncodeMetricsRequest);
}

std::future<AnswerEnvelope> InProcessTransport::SendTrace(
    TraceRequest request) {
  return Poll(request, &ServerEndpoint::HandleTrace, &EncodeTraceRequest);
}

}  // namespace api
}  // namespace pmw
