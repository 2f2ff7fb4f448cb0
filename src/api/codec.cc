#include "api/codec.h"

#include <cstring>

namespace pmw {
namespace api {
namespace {

constexpr uint16_t kMagic = 0x4d50;  // "PM"

// Request field tags.
constexpr uint8_t kReqAnalystId = 1;
constexpr uint8_t kReqRequestId = 2;
constexpr uint8_t kReqDeadline = 3;
constexpr uint8_t kReqQueryName = 4;
// Batched names (one frame, many catalog names): appended within v1, so
// pre-batch decoders skip it under the unknown-field rule.
constexpr uint8_t kReqQueryNames = 5;

// Answer field tags.
constexpr uint8_t kAnsRequestId = 1;
constexpr uint8_t kAnsError = 2;
constexpr uint8_t kAnsMessage = 3;
constexpr uint8_t kAnsAnswer = 4;
constexpr uint8_t kAnsMeta = 5;

// Stats-request field tags.
constexpr uint8_t kStatsAnalystId = 1;
constexpr uint8_t kStatsRequestId = 2;

// Metrics-request field tags.
constexpr uint8_t kMetricsAnalystId = 1;
constexpr uint8_t kMetricsRequestId = 2;
constexpr uint8_t kMetricsFormat = 3;

// Trace-request field tags.
constexpr uint8_t kTraceAnalystId = 1;
constexpr uint8_t kTraceRequestId = 2;
constexpr uint8_t kTraceMinTotalUs = 3;
constexpr uint8_t kTraceMaxTraces = 4;

// Hello-request field tags.
constexpr uint8_t kHelloAnalystId = 1;
constexpr uint8_t kHelloRequestId = 2;
constexpr uint8_t kHelloAuthToken = 3;

// The v1 baseline serving-metadata layout; later same-version fields
// (the shard count) append after it and pre-shard decoders ignore the
// tail, exactly like unknown tagged fields.
constexpr size_t kMetaBytes = 8 + 1 + 1 + 8 + 8 + 8;
constexpr size_t kMetaShardsBytes = kMetaBytes + 4;
// Server-side timing split (queue_wait_us, serve_us), appended after the
// shard count within v1; pre-timing decoders ignore the tail.
constexpr size_t kMetaTimingBytes = kMetaShardsBytes + 8 + 8;
// Span breakdown (prepare_us, solve_us, mw_us, commit_us), appended
// after the timing split within v1; pre-span decoders ignore the tail.
constexpr size_t kMetaSpansBytes = kMetaTimingBytes + 8 + 8 + 8 + 8;

// --- little-endian scalar append/read helpers -----------------------------

template <typename T>
void AppendScalar(T value, std::string* out) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  for (size_t i = 0; i < sizeof(T) / 2; ++i) {
    std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
  }
#endif
  out->append(bytes, sizeof(T));
}

template <typename T>
T ReadScalar(const char* data) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, data, sizeof(T));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  for (size_t i = 0; i < sizeof(T) / 2; ++i) {
    std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
  }
#endif
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

void AppendField(uint8_t tag, std::string_view payload, std::string* out) {
  out->push_back(static_cast<char>(tag));
  AppendScalar<uint32_t>(static_cast<uint32_t>(payload.size()), out);
  out->append(payload.data(), payload.size());
}

template <typename T>
void AppendScalarField(uint8_t tag, T value, std::string* out) {
  std::string payload;
  AppendScalar(value, &payload);
  AppendField(tag, payload, out);
}

/// Opens a frame in *out: writes a zero length prefix + header, returns
/// the offset to patch the prefix at once the payload is complete.
/// `version` comes from the envelope being encoded, NOT the build: a
/// newer server must answer a v1 request with a v1 frame or the older
/// client cannot decode its own replies.
size_t BeginFrame(uint8_t msg_type, uint8_t version, std::string* out) {
  const size_t prefix_at = out->size();
  AppendScalar<uint32_t>(0, out);
  AppendScalar<uint16_t>(kMagic, out);
  out->push_back(static_cast<char>(version));
  out->push_back(static_cast<char>(msg_type));
  return prefix_at;
}

void EndFrame(size_t prefix_at, std::string* out) {
  const uint32_t payload_len =
      static_cast<uint32_t>(out->size() - prefix_at - 4);
  std::string prefix;
  AppendScalar(payload_len, &prefix);
  out->replace(prefix_at, 4, prefix);
}

// --- decode cursor --------------------------------------------------------

/// A bounds-checked reader over one frame's field region. Every Read*
/// returns false instead of walking past the end, which is what makes the
/// decoder total on adversarial input.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view fields) : fields_(fields) {}

  bool Done() const { return offset_ >= fields_.size(); }

  /// Reads the next field header + payload; false on truncation.
  bool Next(uint8_t* tag, std::string_view* payload) {
    if (fields_.size() - offset_ < 1 + 4) return false;
    *tag = static_cast<uint8_t>(fields_[offset_]);
    const uint32_t len = ReadScalar<uint32_t>(fields_.data() + offset_ + 1);
    offset_ += 5;
    if (fields_.size() - offset_ < len) return false;
    *payload = fields_.substr(offset_, len);
    offset_ += len;
    return true;
  }

 private:
  std::string_view fields_;
  size_t offset_ = 0;
};

template <typename T>
bool ReadExactScalar(std::string_view payload, T* value) {
  if (payload.size() != sizeof(T)) return false;
  *value = ReadScalar<T>(payload.data());
  return true;
}

Status Malformed(const std::string& detail) {
  return MakeStatus(ErrorCode::kMalformedRequest, "codec: " + detail);
}

/// Validates the fixed header shared by both message types; on success
/// *fields receives the field region.
Status OpenFrame(std::string_view frame, uint8_t expected_type,
                 std::string_view* fields) {
  if (frame.size() < 4) return Malformed("frame shorter than length prefix");
  const uint32_t payload_len = ReadScalar<uint32_t>(frame.data());
  if (payload_len > kMaxFramePayload) {
    return Malformed("length prefix exceeds kMaxFramePayload");
  }
  if (frame.size() != size_t{payload_len} + 4) {
    return Malformed("length prefix disagrees with frame size");
  }
  if (payload_len < 4) return Malformed("payload shorter than header");
  if (ReadScalar<uint16_t>(frame.data() + 4) != kMagic) {
    return Malformed("bad magic");
  }
  const uint8_t version = static_cast<uint8_t>(frame[6]);
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    return MakeStatus(
        ErrorCode::kVersionMismatch,
        "codec: frame speaks protocol version " + std::to_string(version) +
            "; this endpoint speaks [" +
            std::to_string(kMinProtocolVersion) + ", " +
            std::to_string(kProtocolVersion) + "]");
  }
  if (static_cast<uint8_t>(frame[7]) != expected_type) {
    return Malformed("unexpected message type");
  }
  *fields = frame.substr(8);
  return Status::Ok();
}

}  // namespace

void EncodeRequest(const QueryRequest& request, std::string* out) {
  const size_t prefix_at = BeginFrame(kMsgTypeRequest, request.version, out);
  AppendField(kReqAnalystId, request.analyst_id, out);
  AppendScalarField(kReqRequestId, request.request_id, out);
  if (request.deadline_micros != 0) {
    AppendScalarField(kReqDeadline, request.deadline_micros, out);
  }
  AppendField(kReqQueryName, request.query_name, out);
  if (!request.query_names.empty()) {
    // Batched names: u32 count, then (u32 len | bytes) per name.
    std::string payload;
    AppendScalar<uint32_t>(
        static_cast<uint32_t>(request.query_names.size()), &payload);
    for (const std::string& name : request.query_names) {
      AppendScalar<uint32_t>(static_cast<uint32_t>(name.size()), &payload);
      payload.append(name);
    }
    AppendField(kReqQueryNames, payload, out);
  }
  EndFrame(prefix_at, out);
}

void EncodeStatsRequest(const StatsRequest& request, std::string* out) {
  const size_t prefix_at = BeginFrame(kMsgTypeStats, request.version, out);
  AppendField(kStatsAnalystId, request.analyst_id, out);
  AppendScalarField(kStatsRequestId, request.request_id, out);
  EndFrame(prefix_at, out);
}

void EncodeMetricsRequest(const MetricsRequest& request, std::string* out) {
  const size_t prefix_at =
      BeginFrame(kMsgTypeMetrics, request.version, out);
  AppendField(kMetricsAnalystId, request.analyst_id, out);
  AppendScalarField(kMetricsRequestId, request.request_id, out);
  AppendScalarField(kMetricsFormat, request.format, out);
  EndFrame(prefix_at, out);
}

void EncodeTraceRequest(const TraceRequest& request, std::string* out) {
  const size_t prefix_at = BeginFrame(kMsgTypeTrace, request.version, out);
  AppendField(kTraceAnalystId, request.analyst_id, out);
  AppendScalarField(kTraceRequestId, request.request_id, out);
  AppendScalarField(kTraceMinTotalUs, request.min_total_us, out);
  AppendScalarField(kTraceMaxTraces, request.max_traces, out);
  EndFrame(prefix_at, out);
}

void EncodeHelloRequest(const HelloRequest& request, std::string* out) {
  const size_t prefix_at = BeginFrame(kMsgTypeHello, request.version, out);
  AppendField(kHelloAnalystId, request.analyst_id, out);
  AppendScalarField(kHelloRequestId, request.request_id, out);
  AppendField(kHelloAuthToken, request.auth_token, out);
  EndFrame(prefix_at, out);
}

void EncodeAnswer(const AnswerEnvelope& envelope, std::string* out) {
  const size_t prefix_at =
      BeginFrame(kMsgTypeAnswer, envelope.version, out);
  AppendScalarField(kAnsRequestId, envelope.request_id, out);
  AppendScalarField(kAnsError, static_cast<uint16_t>(envelope.error), out);
  if (!envelope.message.empty()) {
    AppendField(kAnsMessage, envelope.message, out);
  }
  if (!envelope.answer.empty()) {
    std::string payload;
    payload.reserve(envelope.answer.size() * sizeof(double));
    for (double coordinate : envelope.answer) {
      AppendScalar(coordinate, &payload);
    }
    AppendField(kAnsAnswer, payload, out);
  }
  {
    std::string payload;
    AppendScalar<uint64_t>(envelope.meta.epoch, &payload);
    payload.push_back(envelope.meta.hard_round ? 1 : 0);
    payload.push_back(envelope.meta.cache_hit ? 1 : 0);
    AppendScalar<int64_t>(envelope.meta.hard_rounds_remaining, &payload);
    AppendScalar<double>(envelope.meta.epsilon_spent, &payload);
    AppendScalar<double>(envelope.meta.delta_spent, &payload);
    AppendScalar<uint32_t>(envelope.meta.shards, &payload);
    AppendScalar<uint64_t>(envelope.meta.queue_wait_us, &payload);
    AppendScalar<uint64_t>(envelope.meta.serve_us, &payload);
    AppendScalar<uint64_t>(envelope.meta.prepare_us, &payload);
    AppendScalar<uint64_t>(envelope.meta.solve_us, &payload);
    AppendScalar<uint64_t>(envelope.meta.mw_us, &payload);
    AppendScalar<uint64_t>(envelope.meta.commit_us, &payload);
    AppendField(kAnsMeta, payload, out);
  }
  EndFrame(prefix_at, out);
}

FrameStatus ExtractFrame(std::string_view buffer, size_t* total_size) {
  if (buffer.size() < 4) return FrameStatus::kNeedMore;
  const uint32_t payload_len = ReadScalar<uint32_t>(buffer.data());
  if (payload_len > kMaxFramePayload) return FrameStatus::kMalformed;
  if (buffer.size() < size_t{payload_len} + 4) return FrameStatus::kNeedMore;
  *total_size = size_t{payload_len} + 4;
  return FrameStatus::kFrame;
}

uint8_t PeekMsgType(std::string_view frame) {
  if (frame.size() < 8) return 0;
  return static_cast<uint8_t>(frame[7]);
}

Result<QueryRequest> DecodeRequest(std::string_view frame) {
  std::string_view fields;
  Status header = OpenFrame(frame, kMsgTypeRequest, &fields);
  if (!header.ok()) return header;
  QueryRequest request;
  request.version = static_cast<uint8_t>(frame[6]);
  FieldCursor cursor(fields);
  while (!cursor.Done()) {
    uint8_t tag;
    std::string_view payload;
    if (!cursor.Next(&tag, &payload)) {
      return Malformed("truncated request field");
    }
    switch (tag) {
      case kReqAnalystId:
        request.analyst_id.assign(payload.data(), payload.size());
        break;
      case kReqRequestId:
        if (!ReadExactScalar(payload, &request.request_id)) {
          return Malformed("request_id is not a u64");
        }
        break;
      case kReqDeadline:
        if (!ReadExactScalar(payload, &request.deadline_micros)) {
          return Malformed("deadline_micros is not a u64");
        }
        break;
      case kReqQueryName:
        request.query_name.assign(payload.data(), payload.size());
        break;
      case kReqQueryNames: {
        if (payload.size() < 4) {
          return Malformed("batched names shorter than the count");
        }
        const uint32_t count = ReadScalar<uint32_t>(payload.data());
        // Each name costs at least its 4-byte length header; an
        // adversarial count cannot drive allocation past the frame.
        if (size_t{count} > (payload.size() - 4) / 4) {
          return Malformed("batched-name count exceeds the field");
        }
        request.query_names.clear();
        request.query_names.reserve(count);
        size_t offset = 4;
        for (uint32_t i = 0; i < count; ++i) {
          if (payload.size() - offset < 4) {
            return Malformed("truncated batched-name length");
          }
          const uint32_t len =
              ReadScalar<uint32_t>(payload.data() + offset);
          offset += 4;
          if (payload.size() - offset < len) {
            return Malformed("truncated batched name");
          }
          request.query_names.emplace_back(payload.data() + offset, len);
          offset += len;
        }
        break;
      }
      default:
        break;  // unknown field: skip (forward compatibility)
    }
  }
  // An empty/missing query_name is left to the endpoint (kUnknownQuery):
  // rejecting it here would lose the request id and force the reply to
  // carry id 0, which a pipelining client cannot correlate.
  return request;
}

Result<StatsRequest> DecodeStatsRequest(std::string_view frame) {
  std::string_view fields;
  Status header = OpenFrame(frame, kMsgTypeStats, &fields);
  if (!header.ok()) return header;
  StatsRequest request;
  request.version = static_cast<uint8_t>(frame[6]);
  FieldCursor cursor(fields);
  while (!cursor.Done()) {
    uint8_t tag;
    std::string_view payload;
    if (!cursor.Next(&tag, &payload)) {
      return Malformed("truncated stats field");
    }
    switch (tag) {
      case kStatsAnalystId:
        request.analyst_id.assign(payload.data(), payload.size());
        break;
      case kStatsRequestId:
        if (!ReadExactScalar(payload, &request.request_id)) {
          return Malformed("stats request_id is not a u64");
        }
        break;
      default:
        break;  // unknown field: skip (forward compatibility)
    }
  }
  return request;
}

Result<MetricsRequest> DecodeMetricsRequest(std::string_view frame) {
  std::string_view fields;
  Status header = OpenFrame(frame, kMsgTypeMetrics, &fields);
  if (!header.ok()) return header;
  MetricsRequest request;
  request.version = static_cast<uint8_t>(frame[6]);
  FieldCursor cursor(fields);
  while (!cursor.Done()) {
    uint8_t tag;
    std::string_view payload;
    if (!cursor.Next(&tag, &payload)) {
      return Malformed("truncated metrics field");
    }
    switch (tag) {
      case kMetricsAnalystId:
        request.analyst_id.assign(payload.data(), payload.size());
        break;
      case kMetricsRequestId:
        if (!ReadExactScalar(payload, &request.request_id)) {
          return Malformed("metrics request_id is not a u64");
        }
        break;
      case kMetricsFormat:
        if (!ReadExactScalar(payload, &request.format)) {
          return Malformed("metrics format is not a u8");
        }
        break;
      default:
        break;  // unknown field: skip (forward compatibility)
    }
  }
  return request;
}

Result<TraceRequest> DecodeTraceRequest(std::string_view frame) {
  std::string_view fields;
  Status header = OpenFrame(frame, kMsgTypeTrace, &fields);
  if (!header.ok()) return header;
  TraceRequest request;
  request.version = static_cast<uint8_t>(frame[6]);
  FieldCursor cursor(fields);
  while (!cursor.Done()) {
    uint8_t tag;
    std::string_view payload;
    if (!cursor.Next(&tag, &payload)) {
      return Malformed("truncated trace field");
    }
    switch (tag) {
      case kTraceAnalystId:
        request.analyst_id.assign(payload.data(), payload.size());
        break;
      case kTraceRequestId:
        if (!ReadExactScalar(payload, &request.request_id)) {
          return Malformed("trace request_id is not a u64");
        }
        break;
      case kTraceMinTotalUs:
        if (!ReadExactScalar(payload, &request.min_total_us)) {
          return Malformed("trace min_total_us is not a u64");
        }
        break;
      case kTraceMaxTraces:
        if (!ReadExactScalar(payload, &request.max_traces)) {
          return Malformed("trace max_traces is not a u32");
        }
        break;
      default:
        break;  // unknown field: skip (forward compatibility)
    }
  }
  return request;
}

Result<HelloRequest> DecodeHelloRequest(std::string_view frame) {
  std::string_view fields;
  Status header = OpenFrame(frame, kMsgTypeHello, &fields);
  if (!header.ok()) return header;
  HelloRequest request;
  request.version = static_cast<uint8_t>(frame[6]);
  FieldCursor cursor(fields);
  while (!cursor.Done()) {
    uint8_t tag;
    std::string_view payload;
    if (!cursor.Next(&tag, &payload)) {
      return Malformed("truncated hello field");
    }
    switch (tag) {
      case kHelloAnalystId:
        request.analyst_id.assign(payload.data(), payload.size());
        break;
      case kHelloRequestId:
        if (!ReadExactScalar(payload, &request.request_id)) {
          return Malformed("hello request_id is not a u64");
        }
        break;
      case kHelloAuthToken:
        request.auth_token.assign(payload.data(), payload.size());
        break;
      default:
        break;  // unknown field: skip (forward compatibility)
    }
  }
  return request;
}

Result<AnswerEnvelope> DecodeAnswer(std::string_view frame) {
  std::string_view fields;
  Status header = OpenFrame(frame, kMsgTypeAnswer, &fields);
  if (!header.ok()) return header;
  AnswerEnvelope envelope;
  envelope.version = static_cast<uint8_t>(frame[6]);
  FieldCursor cursor(fields);
  while (!cursor.Done()) {
    uint8_t tag;
    std::string_view payload;
    if (!cursor.Next(&tag, &payload)) {
      return Malformed("truncated answer field");
    }
    switch (tag) {
      case kAnsRequestId:
        if (!ReadExactScalar(payload, &envelope.request_id)) {
          return Malformed("request_id is not a u64");
        }
        break;
      case kAnsError: {
        uint16_t raw;
        if (!ReadExactScalar(payload, &raw)) {
          return Malformed("error code is not a u16");
        }
        if (raw > static_cast<uint16_t>(kMaxErrorCode)) {
          // A code minted by a newer peer within an accepted version:
          // degrade to kInternal rather than invent meaning.
          raw = static_cast<uint16_t>(ErrorCode::kInternal);
        }
        envelope.error = static_cast<ErrorCode>(raw);
        break;
      }
      case kAnsMessage:
        envelope.message.assign(payload.data(), payload.size());
        break;
      case kAnsAnswer: {
        if (payload.size() % sizeof(double) != 0) {
          return Malformed("answer vector is not a multiple of 8 bytes");
        }
        const size_t dim = payload.size() / sizeof(double);
        envelope.answer.resize(dim);
        for (size_t i = 0; i < dim; ++i) {
          envelope.answer[i] =
              ReadScalar<double>(payload.data() + i * sizeof(double));
        }
        break;
      }
      case kAnsMeta: {
        if (payload.size() < kMetaBytes) {
          return Malformed("serving metadata shorter than v1 layout");
        }
        const char* p = payload.data();
        envelope.meta.epoch = ReadScalar<uint64_t>(p);
        envelope.meta.hard_round = p[8] != 0;
        envelope.meta.cache_hit = p[9] != 0;
        envelope.meta.hard_rounds_remaining = ReadScalar<int64_t>(p + 10);
        envelope.meta.epsilon_spent = ReadScalar<double>(p + 18);
        envelope.meta.delta_spent = ReadScalar<double>(p + 26);
        // Appended within v1: pre-shard peers emit (and expect) only the
        // baseline layout, so the tail is optional on decode.
        if (payload.size() >= kMetaShardsBytes) {
          envelope.meta.shards = ReadScalar<uint32_t>(p + 34);
        }
        if (payload.size() >= kMetaTimingBytes) {
          envelope.meta.queue_wait_us = ReadScalar<uint64_t>(p + 38);
          envelope.meta.serve_us = ReadScalar<uint64_t>(p + 46);
        }
        if (payload.size() >= kMetaSpansBytes) {
          envelope.meta.prepare_us = ReadScalar<uint64_t>(p + 54);
          envelope.meta.solve_us = ReadScalar<uint64_t>(p + 62);
          envelope.meta.mw_us = ReadScalar<uint64_t>(p + 70);
          envelope.meta.commit_us = ReadScalar<uint64_t>(p + 78);
        }
        break;
      }
      default:
        break;  // unknown field: skip (forward compatibility)
    }
  }
  return envelope;
}

}  // namespace api
}  // namespace pmw
