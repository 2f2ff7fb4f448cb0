// Binary wire codec for the pmw::api envelopes.
//
// Frame layout (all integers little-endian):
//
//   u32  payload_len          length of everything after this field
//   ---- payload ----
//   u16  magic = 0x4d50       "PM"
//   u8   version              protocol version of the sender
//   u8   msg_type             1 = QueryRequest, 2 = AnswerEnvelope,
//                             3 = StatsRequest, 4 = MetricsRequest,
//                             5 = TraceRequest, 6 = HelloRequest
//                             (7 is retired: decoders answer it as an
//                             unexpected message type)
//   field*                    tagged fields, any order
//
//   field := u8 tag | u32 len | len bytes
//
// Forward compatibility: decoders skip fields with unknown tags, so a
// same-version peer may append fields without breaking older builds. A
// frame whose version is *newer* than kProtocolVersion is rejected with
// kVersionMismatch — its layout beyond the fixed header is unknowable —
// and one older than kMinProtocolVersion likewise (nothing speaks it).
// Every other malformation (bad magic, truncated field, overlong length,
// wrong scalar width) decodes to a typed kMalformedRequest error; decode
// never crashes on adversarial bytes (tests/api_codec_test.cc fuzzes
// truncations, corruptions, and future-version frames).

#ifndef PMWCM_API_CODEC_H_
#define PMWCM_API_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "api/envelope.h"
#include "common/result.h"

namespace pmw {
namespace api {

/// Upper bound on payload_len: protects decoders (and the fuzz test's
/// allocator) from hostile length prefixes. Generous for real traffic —
/// a 1M-coordinate answer is ~8 MiB < 16 MiB.
inline constexpr size_t kMaxFramePayload = size_t{1} << 24;

inline constexpr uint8_t kMsgTypeRequest = 1;
inline constexpr uint8_t kMsgTypeAnswer = 2;
inline constexpr uint8_t kMsgTypeStats = 3;
inline constexpr uint8_t kMsgTypeMetrics = 4;
inline constexpr uint8_t kMsgTypeTrace = 5;
inline constexpr uint8_t kMsgTypeHello = 6;

/// Appends one complete frame (length prefix included) to *out. A
/// request with a non-empty query_names vector encodes the batched
/// tagged field (one frame, many names) — still a v1 frame that older
/// same-version decoders skip field-wise.
void EncodeRequest(const QueryRequest& request, std::string* out);
void EncodeAnswer(const AnswerEnvelope& envelope, std::string* out);
void EncodeStatsRequest(const StatsRequest& request, std::string* out);
void EncodeMetricsRequest(const MetricsRequest& request, std::string* out);
void EncodeTraceRequest(const TraceRequest& request, std::string* out);
void EncodeHelloRequest(const HelloRequest& request, std::string* out);

/// Stream framing: is a complete frame sitting at the front of `buffer`?
enum class FrameStatus {
  kFrame,     // yes; *total_size is its full byte count
  kNeedMore,  // prefix of a valid frame; read more bytes
  kMalformed  // length prefix exceeds kMaxFramePayload; drop connection
};
FrameStatus ExtractFrame(std::string_view buffer, size_t* total_size);

/// Message type of a complete frame (0 when the header is malformed).
uint8_t PeekMsgType(std::string_view frame);

/// Decode one complete frame (as delimited by ExtractFrame). Errors are
/// typed: kVersionMismatch for frames outside [kMinProtocolVersion,
/// kProtocolVersion], kMalformedRequest for everything else.
Result<QueryRequest> DecodeRequest(std::string_view frame);
Result<AnswerEnvelope> DecodeAnswer(std::string_view frame);
Result<StatsRequest> DecodeStatsRequest(std::string_view frame);
Result<MetricsRequest> DecodeMetricsRequest(std::string_view frame);
Result<TraceRequest> DecodeTraceRequest(std::string_view frame);
Result<HelloRequest> DecodeHelloRequest(std::string_view frame);

}  // namespace api
}  // namespace pmw

#endif  // PMWCM_API_CODEC_H_
