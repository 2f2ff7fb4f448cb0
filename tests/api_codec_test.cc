// Property-style fuzz coverage for the api wire codec (api/codec.h):
//
//   (a) encode ∘ decode is the identity on QueryRequest and
//       AnswerEnvelope — including adversarial field contents (embedded
//       NULs, arbitrary bytes, NaN/Inf coordinates, compared bitwise).
//   (b) Decode is *total* on adversarial bytes: truncated buffers,
//       corrupted length prefixes, random byte flips, and empty input
//       return typed errors (kMalformedRequest / kVersionMismatch) or a
//       valid message — never a crash. The ASan/UBSan CI job runs this
//       binary, so "never crashes" includes "never reads out of bounds".
//   (c) Version negotiation: future-version frames are rejected with
//       kVersionMismatch; unknown fields inside an accepted version are
//       skipped (forward compatibility).

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "api/codec.h"
#include "api/envelope.h"
#include "api/error.h"
#include "common/random.h"
#include "gtest/gtest.h"

namespace pmw {
namespace api {
namespace {

std::string RandomBytes(Rng* rng, int max_len) {
  const int len = rng->UniformInt(max_len + 1);
  std::string bytes(static_cast<size_t>(len), '\0');
  for (char& b : bytes) b = static_cast<char>(rng->UniformInt(256));
  return bytes;
}

QueryRequest RandomRequest(Rng* rng) {
  QueryRequest request;
  request.analyst_id = RandomBytes(rng, 24);
  request.request_id = rng->NextSeed();
  request.deadline_micros = rng->Bernoulli(0.5) ? rng->NextSeed() : 0;
  request.query_name = RandomBytes(rng, 40);
  if (request.query_name.empty()) request.query_name = "q";  // required
  return request;
}

QueryRequest RandomBatchedRequest(Rng* rng) {
  QueryRequest request = RandomRequest(rng);
  const int names = 1 + rng->UniformInt(8);
  for (int i = 0; i < names; ++i) {
    // Adversarial contents included: empty names, embedded NULs.
    request.query_names.push_back(RandomBytes(rng, 24));
  }
  return request;
}

StatsRequest RandomStatsRequest(Rng* rng) {
  StatsRequest request;
  request.analyst_id = RandomBytes(rng, 24);
  request.request_id = rng->NextSeed();
  return request;
}

MetricsRequest RandomMetricsRequest(Rng* rng) {
  MetricsRequest request;
  request.analyst_id = RandomBytes(rng, 24);
  request.request_id = rng->NextSeed();
  // Unknown formats must survive the wire too — the ENDPOINT rejects
  // them (typed), the codec just carries the byte.
  request.format = static_cast<uint8_t>(rng->UniformInt(4));
  return request;
}

TraceRequest RandomTraceRequest(Rng* rng) {
  TraceRequest request;
  request.analyst_id = RandomBytes(rng, 24);
  request.request_id = rng->NextSeed();
  request.min_total_us = rng->Bernoulli(0.5) ? rng->NextSeed() : 0;
  request.max_traces = static_cast<uint32_t>(rng->UniformInt(1 << 20));
  return request;
}

double RandomDouble(Rng* rng) {
  switch (rng->UniformInt(6)) {
    case 0:
      return std::numeric_limits<double>::infinity();
    case 1:
      return -std::numeric_limits<double>::quiet_NaN();
    case 2:
      return 0.0;
    default:
      return rng->Gaussian(0.0, 1e6);
  }
}

AnswerEnvelope RandomEnvelope(Rng* rng) {
  AnswerEnvelope envelope;
  envelope.request_id = rng->NextSeed();
  envelope.error = static_cast<ErrorCode>(rng->UniformInt(12));
  envelope.message = RandomBytes(rng, 60);
  const int dim = rng->UniformInt(16);
  for (int i = 0; i < dim; ++i) envelope.answer.push_back(RandomDouble(rng));
  envelope.meta.epoch = rng->NextSeed();
  envelope.meta.hard_round = rng->Bernoulli(0.5);
  envelope.meta.cache_hit = rng->Bernoulli(0.5);
  envelope.meta.hard_rounds_remaining =
      static_cast<long long>(rng->UniformInt(1000)) - 1;
  envelope.meta.epsilon_spent = RandomDouble(rng);
  envelope.meta.delta_spent = RandomDouble(rng);
  envelope.meta.shards = static_cast<uint32_t>(rng->UniformInt(64));
  envelope.meta.queue_wait_us = rng->NextSeed();
  envelope.meta.serve_us = rng->NextSeed();
  envelope.meta.prepare_us = rng->NextSeed();
  envelope.meta.solve_us = rng->NextSeed();
  envelope.meta.mw_us = rng->NextSeed();
  envelope.meta.commit_us = rng->NextSeed();
  return envelope;
}

/// Bitwise double equality (NaN payloads must survive the wire).
bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

void ExpectTypedDecodeFailure(std::string_view frame) {
  Result<QueryRequest> request = DecodeRequest(frame);
  if (request.ok()) return;  // a mutation can leave the frame valid
  const ErrorCode code = ClassifyStatus(request.status());
  EXPECT_TRUE(code == ErrorCode::kMalformedRequest ||
              code == ErrorCode::kVersionMismatch)
      << ErrorCodeName(code) << ": " << request.status().ToString();
}

TEST(ApiCodecTest, RequestRoundTripIsIdentity) {
  Rng rng(0xC0DEC);
  for (int trial = 0; trial < 500; ++trial) {
    const QueryRequest request = RandomRequest(&rng);
    std::string wire;
    EncodeRequest(request, &wire);

    size_t frame_size = 0;
    ASSERT_EQ(ExtractFrame(wire, &frame_size), FrameStatus::kFrame);
    ASSERT_EQ(frame_size, wire.size());
    ASSERT_EQ(PeekMsgType(wire), kMsgTypeRequest);

    Result<QueryRequest> decoded = DecodeRequest(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().version, kProtocolVersion);
    EXPECT_EQ(decoded.value().analyst_id, request.analyst_id);
    EXPECT_EQ(decoded.value().request_id, request.request_id);
    EXPECT_EQ(decoded.value().deadline_micros, request.deadline_micros);
    EXPECT_EQ(decoded.value().query_name, request.query_name);
  }
}

TEST(ApiCodecTest, AnswerRoundTripIsIdentity) {
  Rng rng(0xC0DEC + 1);
  for (int trial = 0; trial < 500; ++trial) {
    const AnswerEnvelope envelope = RandomEnvelope(&rng);
    std::string wire;
    EncodeAnswer(envelope, &wire);
    ASSERT_EQ(PeekMsgType(wire), kMsgTypeAnswer);

    Result<AnswerEnvelope> decoded = DecodeAnswer(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const AnswerEnvelope& got = decoded.value();
    EXPECT_EQ(got.request_id, envelope.request_id);
    EXPECT_EQ(got.error, envelope.error);
    EXPECT_EQ(got.message, envelope.message);
    ASSERT_EQ(got.answer.size(), envelope.answer.size());
    for (size_t i = 0; i < envelope.answer.size(); ++i) {
      EXPECT_TRUE(SameBits(got.answer[i], envelope.answer[i])) << i;
    }
    EXPECT_EQ(got.meta.epoch, envelope.meta.epoch);
    EXPECT_EQ(got.meta.hard_round, envelope.meta.hard_round);
    EXPECT_EQ(got.meta.cache_hit, envelope.meta.cache_hit);
    EXPECT_EQ(got.meta.hard_rounds_remaining,
              envelope.meta.hard_rounds_remaining);
    EXPECT_TRUE(SameBits(got.meta.epsilon_spent, envelope.meta.epsilon_spent));
    EXPECT_TRUE(SameBits(got.meta.delta_spent, envelope.meta.delta_spent));
    EXPECT_EQ(got.meta.shards, envelope.meta.shards);
    EXPECT_EQ(got.meta.queue_wait_us, envelope.meta.queue_wait_us);
    EXPECT_EQ(got.meta.serve_us, envelope.meta.serve_us);
    EXPECT_EQ(got.meta.prepare_us, envelope.meta.prepare_us);
    EXPECT_EQ(got.meta.solve_us, envelope.meta.solve_us);
    EXPECT_EQ(got.meta.mw_us, envelope.meta.mw_us);
    EXPECT_EQ(got.meta.commit_us, envelope.meta.commit_us);
  }
}

TEST(ApiCodecTest, BatchedRequestRoundTripIsIdentity) {
  Rng rng(0xC0DEC + 7);
  for (int trial = 0; trial < 500; ++trial) {
    const QueryRequest request = RandomBatchedRequest(&rng);
    std::string wire;
    EncodeRequest(request, &wire);
    ASSERT_EQ(PeekMsgType(wire), kMsgTypeRequest);

    Result<QueryRequest> decoded = DecodeRequest(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().analyst_id, request.analyst_id);
    EXPECT_EQ(decoded.value().request_id, request.request_id);
    ASSERT_EQ(decoded.value().query_names.size(),
              request.query_names.size());
    for (size_t i = 0; i < request.query_names.size(); ++i) {
      EXPECT_EQ(decoded.value().query_names[i], request.query_names[i])
          << i;
    }
  }
}

TEST(ApiCodecTest, StatsRequestRoundTripIsIdentity) {
  Rng rng(0xC0DEC + 8);
  for (int trial = 0; trial < 500; ++trial) {
    const StatsRequest request = RandomStatsRequest(&rng);
    std::string wire;
    EncodeStatsRequest(request, &wire);

    size_t frame_size = 0;
    ASSERT_EQ(ExtractFrame(wire, &frame_size), FrameStatus::kFrame);
    ASSERT_EQ(frame_size, wire.size());
    ASSERT_EQ(PeekMsgType(wire), kMsgTypeStats);

    Result<StatsRequest> decoded = DecodeStatsRequest(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().version, kProtocolVersion);
    EXPECT_EQ(decoded.value().analyst_id, request.analyst_id);
    EXPECT_EQ(decoded.value().request_id, request.request_id);
  }
}

TEST(ApiCodecTest, MetricsRequestRoundTripIsIdentity) {
  Rng rng(0xC0DEC + 11);
  for (int trial = 0; trial < 500; ++trial) {
    const MetricsRequest request = RandomMetricsRequest(&rng);
    std::string wire;
    EncodeMetricsRequest(request, &wire);

    size_t frame_size = 0;
    ASSERT_EQ(ExtractFrame(wire, &frame_size), FrameStatus::kFrame);
    ASSERT_EQ(frame_size, wire.size());
    ASSERT_EQ(PeekMsgType(wire), kMsgTypeMetrics);

    Result<MetricsRequest> decoded = DecodeMetricsRequest(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().version, kProtocolVersion);
    EXPECT_EQ(decoded.value().analyst_id, request.analyst_id);
    EXPECT_EQ(decoded.value().request_id, request.request_id);
    EXPECT_EQ(decoded.value().format, request.format);
  }
}

TEST(ApiCodecTest, TraceRequestRoundTripIsIdentity) {
  Rng rng(0xC0DEC + 12);
  for (int trial = 0; trial < 500; ++trial) {
    const TraceRequest request = RandomTraceRequest(&rng);
    std::string wire;
    EncodeTraceRequest(request, &wire);

    size_t frame_size = 0;
    ASSERT_EQ(ExtractFrame(wire, &frame_size), FrameStatus::kFrame);
    ASSERT_EQ(frame_size, wire.size());
    ASSERT_EQ(PeekMsgType(wire), kMsgTypeTrace);

    Result<TraceRequest> decoded = DecodeTraceRequest(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().version, kProtocolVersion);
    EXPECT_EQ(decoded.value().analyst_id, request.analyst_id);
    EXPECT_EQ(decoded.value().request_id, request.request_id);
    EXPECT_EQ(decoded.value().min_total_us, request.min_total_us);
    EXPECT_EQ(decoded.value().max_traces, request.max_traces);
  }
}

TEST(ApiCodecTest, MetricsAndTraceTruncationsAreTypedNeverACrash) {
  Rng rng(0xC0DEC + 13);
  for (int trial = 0; trial < 25; ++trial) {
    for (const bool trace : {false, true}) {
      std::string wire;
      if (trace) {
        EncodeTraceRequest(RandomTraceRequest(&rng), &wire);
      } else {
        EncodeMetricsRequest(RandomMetricsRequest(&rng), &wire);
      }
      for (size_t cut = 0; cut < wire.size(); ++cut) {
        const std::string_view prefix(wire.data(), cut);
        size_t frame_size = 0;
        EXPECT_EQ(ExtractFrame(prefix, &frame_size),
                  FrameStatus::kNeedMore);
        if (trace) {
          Result<TraceRequest> decoded = DecodeTraceRequest(prefix);
          ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
          EXPECT_EQ(ClassifyStatus(decoded.status()),
                    ErrorCode::kMalformedRequest)
              << "cut=" << cut;
        } else {
          Result<MetricsRequest> decoded = DecodeMetricsRequest(prefix);
          ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
          EXPECT_EQ(ClassifyStatus(decoded.status()),
                    ErrorCode::kMalformedRequest)
              << "cut=" << cut;
        }
      }
    }
  }
}

TEST(ApiCodecTest, FutureVersionMetricsAndTraceFramesAreVersionMismatch) {
  Rng rng(0xC0DEC + 14);
  {
    std::string wire;
    EncodeMetricsRequest(RandomMetricsRequest(&rng), &wire);
    wire[6] = 99;  // version byte sits after the length + magic
    Result<MetricsRequest> decoded = DecodeMetricsRequest(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(ClassifyStatus(decoded.status()),
              ErrorCode::kVersionMismatch);
  }
  {
    std::string wire;
    EncodeTraceRequest(RandomTraceRequest(&rng), &wire);
    wire[6] = 99;
    Result<TraceRequest> decoded = DecodeTraceRequest(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(ClassifyStatus(decoded.status()),
              ErrorCode::kVersionMismatch);
  }
}

TEST(ApiCodecTest, PreSpanMetaTailsDecodeWithZeroSpans) {
  // A peer from before the span breakdown emits a 54-byte meta payload
  // (epoch..serve_us). Simulate one by chopping the 32-byte span tail
  // off a fresh frame and re-patching the two length prefixes; the
  // decoder must fill the missing spans with zeros, not reject.
  Rng rng(0xC0DEC + 15);
  AnswerEnvelope envelope = RandomEnvelope(&rng);
  envelope.error = ErrorCode::kOk;
  std::string wire;
  EncodeAnswer(envelope, &wire);

  constexpr size_t kSpanTail = 4 * sizeof(uint64_t);
  constexpr size_t kNewMetaLen = 54;  // v1 baseline + shards + timing
  // The meta field is the last one in the frame: tag, u32 length, payload.
  const size_t meta_len_at = wire.size() - (kNewMetaLen + kSpanTail) - 4;
  const auto patch_u32 = [&wire](size_t at, uint32_t value) {
    char bytes[4];
    std::memcpy(bytes, &value, sizeof(value));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    std::swap(bytes[0], bytes[3]);
    std::swap(bytes[1], bytes[2]);
#endif
    wire.replace(at, 4, bytes, 4);
  };
  patch_u32(meta_len_at, kNewMetaLen);
  wire.resize(wire.size() - kSpanTail);
  patch_u32(0, static_cast<uint32_t>(wire.size() - 4));

  size_t frame_size = 0;
  ASSERT_EQ(ExtractFrame(wire, &frame_size), FrameStatus::kFrame);
  Result<AnswerEnvelope> decoded = DecodeAnswer(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const AnswerEnvelope& got = decoded.value();
  // Everything up to the timing split survives...
  EXPECT_EQ(got.meta.epoch, envelope.meta.epoch);
  EXPECT_EQ(got.meta.shards, envelope.meta.shards);
  EXPECT_EQ(got.meta.queue_wait_us, envelope.meta.queue_wait_us);
  EXPECT_EQ(got.meta.serve_us, envelope.meta.serve_us);
  // ...and the absent span tail reads as "unknown", never garbage.
  EXPECT_EQ(got.meta.prepare_us, 0u);
  EXPECT_EQ(got.meta.solve_us, 0u);
  EXPECT_EQ(got.meta.mw_us, 0u);
  EXPECT_EQ(got.meta.commit_us, 0u);
}

TEST(ApiCodecTest, BatchedAndStatsTruncationsAreTypedNeverACrash) {
  Rng rng(0xC0DEC + 9);
  for (int trial = 0; trial < 25; ++trial) {
    for (const bool stats : {false, true}) {
      std::string wire;
      if (stats) {
        EncodeStatsRequest(RandomStatsRequest(&rng), &wire);
      } else {
        EncodeRequest(RandomBatchedRequest(&rng), &wire);
      }
      for (size_t cut = 0; cut < wire.size(); ++cut) {
        const std::string_view prefix(wire.data(), cut);
        size_t frame_size = 0;
        EXPECT_EQ(ExtractFrame(prefix, &frame_size),
                  FrameStatus::kNeedMore);
        if (stats) {
          Result<StatsRequest> decoded = DecodeStatsRequest(prefix);
          ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
          EXPECT_EQ(ClassifyStatus(decoded.status()),
                    ErrorCode::kMalformedRequest)
              << "cut=" << cut;
        } else {
          Result<QueryRequest> decoded = DecodeRequest(prefix);
          ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
          EXPECT_EQ(ClassifyStatus(decoded.status()),
                    ErrorCode::kMalformedRequest)
              << "cut=" << cut;
        }
      }
    }
  }
}

TEST(ApiCodecTest, BatchedAndStatsCorruptionsAreTypedNeverACrash) {
  Rng rng(0xC0DEC + 10);
  for (int trial = 0; trial < 400; ++trial) {
    std::string wire;
    switch (rng.UniformInt(3)) {
      case 0:
        EncodeRequest(RandomBatchedRequest(&rng), &wire);
        break;
      case 1:
        EncodeStatsRequest(RandomStatsRequest(&rng), &wire);
        break;
      default: {
        AnswerEnvelope envelope = RandomEnvelope(&rng);
        EncodeAnswer(envelope, &wire);
        break;
      }
    }
    const int flips = 1 + rng.UniformInt(8);
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(static_cast<int>(wire.size())));
      wire[at] = static_cast<char>(rng.UniformInt(256));
    }
    // Every decoder must be total on the mutation, whichever frame it
    // actually was (cross-decoding a foreign type is a typed error too).
    ExpectTypedDecodeFailure(wire);
    Result<StatsRequest> stats = DecodeStatsRequest(wire);
    if (!stats.ok()) {
      const ErrorCode code = ClassifyStatus(stats.status());
      EXPECT_TRUE(code == ErrorCode::kMalformedRequest ||
                  code == ErrorCode::kVersionMismatch);
    }
    Result<AnswerEnvelope> answer = DecodeAnswer(wire);
    if (!answer.ok()) {
      const ErrorCode code = ClassifyStatus(answer.status());
      EXPECT_TRUE(code == ErrorCode::kMalformedRequest ||
                  code == ErrorCode::kVersionMismatch);
    }
  }
}

TEST(ApiCodecTest, FutureVersionStatsFramesAreVersionMismatch) {
  Rng rng(0xC0DEC + 11);
  std::string wire;
  EncodeStatsRequest(RandomStatsRequest(&rng), &wire);
  wire[6] = static_cast<char>(kProtocolVersion + 9);
  Result<StatsRequest> decoded = DecodeStatsRequest(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(ClassifyStatus(decoded.status()), ErrorCode::kVersionMismatch);
}

TEST(ApiCodecTest, HostileBatchedNameCountsAreRejectedWithoutAllocation) {
  // A forged count far beyond the field's bytes must be a typed error
  // before any reserve() could act on it.
  QueryRequest request;
  request.analyst_id = "a";
  request.request_id = 5;
  request.query_names = {"x", "y"};
  std::string wire;
  EncodeRequest(request, &wire);
  // The batched field is encoded last, so its count sits right after
  // the field header (1 tag + 4 len bytes) that follows the bare
  // frame's bytes; locate it by re-encoding without the field.
  QueryRequest bare = request;
  bare.query_names.clear();
  std::string prefix;
  EncodeRequest(bare, &prefix);
  const size_t count_at = prefix.size() + 5;
  ASSERT_LE(count_at + 4, wire.size());
  const uint32_t bogus = 0x7FFFFFFF;
  std::memcpy(wire.data() + count_at, &bogus, sizeof(bogus));
  Result<QueryRequest> decoded = DecodeRequest(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(ClassifyStatus(decoded.status()), ErrorCode::kMalformedRequest);
}

TEST(ApiCodecTest, EveryTruncationIsTypedNeverACrash) {
  Rng rng(0xC0DEC + 2);
  for (int trial = 0; trial < 50; ++trial) {
    std::string wire;
    EncodeRequest(RandomRequest(&rng), &wire);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      const std::string_view prefix(wire.data(), cut);
      // Stream framing reports "wait for more bytes"...
      size_t frame_size = 0;
      EXPECT_EQ(ExtractFrame(prefix, &frame_size), FrameStatus::kNeedMore);
      // ...and decoding the truncation as if complete is a typed error.
      Result<QueryRequest> decoded = DecodeRequest(prefix);
      ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
      EXPECT_EQ(ClassifyStatus(decoded.status()),
                ErrorCode::kMalformedRequest)
          << "cut=" << cut;
    }
  }
}

TEST(ApiCodecTest, CorruptedBytesAreTypedNeverACrash) {
  Rng rng(0xC0DEC + 3);
  for (int trial = 0; trial < 400; ++trial) {
    std::string wire;
    if (rng.Bernoulli(0.5)) {
      EncodeRequest(RandomRequest(&rng), &wire);
    } else {
      AnswerEnvelope envelope = RandomEnvelope(&rng);
      EncodeAnswer(envelope, &wire);
    }
    // 1..8 random byte mutations anywhere, length prefix included.
    const int flips = 1 + rng.UniformInt(8);
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(static_cast<int>(wire.size())));
      wire[at] = static_cast<char>(rng.UniformInt(256));
    }
    ExpectTypedDecodeFailure(wire);
    Result<AnswerEnvelope> answer = DecodeAnswer(wire);
    if (!answer.ok()) {
      const ErrorCode code = ClassifyStatus(answer.status());
      EXPECT_TRUE(code == ErrorCode::kMalformedRequest ||
                  code == ErrorCode::kVersionMismatch);
    }
  }
}

TEST(ApiCodecTest, HostileLengthPrefixesAreRejected) {
  // An adversarial length prefix must not drive allocation or reads.
  QueryRequest tiny;
  tiny.query_name = "q";
  std::string wire;
  EncodeRequest(tiny, &wire);
  std::string huge = wire;
  const uint32_t bogus = 0xFFFFFFFF;
  std::memcpy(huge.data(), &bogus, sizeof(bogus));
  size_t frame_size = 0;
  EXPECT_EQ(ExtractFrame(huge, &frame_size), FrameStatus::kMalformed);
  EXPECT_FALSE(DecodeRequest(huge).ok());
  // Empty / sub-header inputs.
  EXPECT_EQ(ExtractFrame(std::string_view(), &frame_size),
            FrameStatus::kNeedMore);
  EXPECT_FALSE(DecodeRequest(std::string_view()).ok());
  EXPECT_EQ(PeekMsgType(std::string_view()), 0);
}

TEST(ApiCodecTest, FutureVersionFramesAreVersionMismatch) {
  Rng rng(0xC0DEC + 4);
  for (int version = kProtocolVersion + 1; version < 256; version += 37) {
    std::string wire;
    EncodeRequest(RandomRequest(&rng), &wire);
    wire[6] = static_cast<char>(version);  // the header's version byte
    Result<QueryRequest> decoded = DecodeRequest(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(ClassifyStatus(decoded.status()), ErrorCode::kVersionMismatch);
  }
  // Version 0 predates kMinProtocolVersion: nothing speaks it.
  std::string wire;
  EncodeRequest(RandomRequest(&rng), &wire);
  wire[6] = 0;
  Result<QueryRequest> decoded = DecodeRequest(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(ClassifyStatus(decoded.status()), ErrorCode::kVersionMismatch);
}

TEST(ApiCodecTest, EmptyQueryNameDecodesSoTheReplyKeepsItsRequestId) {
  // A nameless request is the ENDPOINT's problem (kUnknownQuery): if the
  // codec rejected it the reply would carry request id 0 and a
  // pipelining client could not correlate it.
  QueryRequest request;
  request.analyst_id = "a";
  request.request_id = 42;
  std::string wire;
  EncodeRequest(request, &wire);
  Result<QueryRequest> decoded = DecodeRequest(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, 42u);
  EXPECT_TRUE(decoded.value().query_name.empty());
}

TEST(ApiCodecTest, UnknownFieldsAreSkippedForForwardCompatibility) {
  QueryRequest request;
  request.analyst_id = "a";
  request.request_id = 7;
  request.query_name = "q";
  std::string wire;
  EncodeRequest(request, &wire);
  // Append a field a future same-version peer might add: tag 200 with 5
  // payload bytes, then patch the frame's length prefix.
  wire.push_back(static_cast<char>(200));
  const uint32_t extra_len = 5;
  wire.append(reinterpret_cast<const char*>(&extra_len), 4);
  wire.append("extra", 5);
  const uint32_t payload_len = static_cast<uint32_t>(wire.size() - 4);
  std::memcpy(wire.data(), &payload_len, sizeof(payload_len));

  Result<QueryRequest> decoded = DecodeRequest(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().analyst_id, "a");
  EXPECT_EQ(decoded.value().request_id, 7u);
  EXPECT_EQ(decoded.value().query_name, "q");
}

HelloRequest RandomHelloRequest(Rng* rng) {
  HelloRequest request;
  request.analyst_id = RandomBytes(rng, 24);
  request.request_id = rng->NextSeed();
  // Adversarial tokens included: empty, embedded NULs, arbitrary bytes.
  request.auth_token = RandomBytes(rng, 48);
  return request;
}

TEST(ApiCodecTest, HelloRoundTripIsIdentity) {
  Rng rng(0xC0DEC + 16);
  for (int trial = 0; trial < 500; ++trial) {
    const HelloRequest request = RandomHelloRequest(&rng);
    std::string wire;
    EncodeHelloRequest(request, &wire);

    size_t frame_size = 0;
    ASSERT_EQ(ExtractFrame(wire, &frame_size), FrameStatus::kFrame);
    ASSERT_EQ(frame_size, wire.size());
    ASSERT_EQ(PeekMsgType(wire), kMsgTypeHello);

    Result<HelloRequest> decoded = DecodeHelloRequest(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().version, kProtocolVersion);
    EXPECT_EQ(decoded.value().analyst_id, request.analyst_id);
    EXPECT_EQ(decoded.value().request_id, request.request_id);
    EXPECT_EQ(decoded.value().auth_token, request.auth_token);
  }
}

TEST(ApiCodecTest, HelloTruncationsAreTypedNeverACrash) {
  Rng rng(0xC0DEC + 18);
  for (int trial = 0; trial < 25; ++trial) {
    std::string wire;
    EncodeHelloRequest(RandomHelloRequest(&rng), &wire);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      const std::string_view prefix(wire.data(), cut);
      size_t frame_size = 0;
      EXPECT_EQ(ExtractFrame(prefix, &frame_size), FrameStatus::kNeedMore);
      Result<HelloRequest> decoded = DecodeHelloRequest(prefix);
      ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
      EXPECT_EQ(ClassifyStatus(decoded.status()),
                ErrorCode::kMalformedRequest)
          << "cut=" << cut;
    }
  }
}

TEST(ApiCodecTest, HelloCorruptionsAreTypedNeverACrash) {
  Rng rng(0xC0DEC + 19);
  for (int trial = 0; trial < 400; ++trial) {
    std::string wire;
    EncodeHelloRequest(RandomHelloRequest(&rng), &wire);
    const int flips = 1 + rng.UniformInt(8);
    for (int f = 0; f < flips; ++f) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(static_cast<int>(wire.size())));
      wire[at] = static_cast<char>(rng.UniformInt(256));
    }
    Result<HelloRequest> hello = DecodeHelloRequest(wire);
    if (!hello.ok()) {
      const ErrorCode code = ClassifyStatus(hello.status());
      EXPECT_TRUE(code == ErrorCode::kMalformedRequest ||
                  code == ErrorCode::kVersionMismatch)
          << ErrorCodeName(code);
    }
  }
}

TEST(ApiCodecTest, FutureVersionHelloFramesAreVersionMismatch) {
  Rng rng(0xC0DEC + 20);
  std::string wire;
  EncodeHelloRequest(RandomHelloRequest(&rng), &wire);
  wire[6] = 99;  // version byte sits after the length + magic
  Result<HelloRequest> decoded = DecodeHelloRequest(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(ClassifyStatus(decoded.status()), ErrorCode::kVersionMismatch);
}

}  // namespace
}  // namespace api
}  // namespace pmw
