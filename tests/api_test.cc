// Acceptance tests for the pmw::api front door (src/api/):
//
//   (a) End-to-end transcript equivalence THROUGH THE WIRE: N client
//       threads, each on its own SocketTransport connection, drive a
//       SocketServer -> ServerEndpoint -> Dispatcher -> PmwService; the
//       endpoint's recorded arrival log is replayed through sequential
//       core::PmwCm under the same seed, and answers + the privacy
//       ledger must be bit-identical. The codec, the socket loops, the
//       queue, and the sharded service may only ever change wall-clock.
//   (b) The error taxonomy is lossless: every Status the lower layers
//       emit classifies to exactly one ErrorCode, canonical statuses
//       round-trip exactly, and protocol-level rejections (unknown
//       query, version mismatch, quota) are typed and cost zero privacy.
//   (c) Serving metadata rides along: epochs, hard/soft rounds,
//       cache-hit flags, and the remaining-budget view are consistent
//       with the mechanism's own accounting.
//   (d) Identity over TCP: an endpoint with an auth token rejects
//       un-helloed or wrongly-helloed traffic with typed kAuthRequired
//       envelopes, a connection cannot speak for an analyst it did not
//       bind, and the bound analyst's transcript still matches
//       sequential core::PmwCm bit for bit. The in-process loopback is
//       a trusted caller: even through the frame handler (verify-codec
//       mode) it needs no hello.
//   (e) The arrival log holds exactly the committed requests: door
//       rejections and deadline expiries are absent, the mechanism's
//       own halt is present, and the log replays bit for bit.
//
// The TSan CI job rebuilds this binary: the socket reader/writer threads
// (Unix and TCP) and the deferred envelope assembly run under the race
// detector.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/catalog.h"
#include "api/client.h"
#include "api/codec.h"
#include "api/endpoint.h"
#include "api/envelope.h"
#include "api/error.h"
#include "api/in_process_transport.h"
#include "api/socket_transport.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/generators.h"
#include "erm/noisy_gradient_oracle.h"
#include "gtest/gtest.h"

namespace pmw {
namespace api {
namespace {

core::PmwOptions PracticalOptions() {
  core::PmwOptions options;
  options.alpha = 0.15;
  options.beta = 0.05;
  options.privacy = {2.0, 1e-6};
  options.scale = 2.0;
  options.max_queries = 400;
  options.override_updates = 24;
  return options;
}

class ApiTest : public ::testing::Test {
 protected:
  ApiTest() : universe_(3) {
    data::Histogram dist = data::LogisticModelDistribution(
        universe_, {1.0, -0.8, 0.5}, {0.7, 0.4, 0.5}, 0.25);
    dataset_ = std::make_unique<data::Dataset>(
        data::RoundedDataset(universe_, dist, 60000));
    WorkloadSpec spec;
    spec.family = WorkloadSpec::Family::kLipschitz;
    spec.dim = 3;
    names_ = catalog_.Populate(spec, 8, /*seed=*/424242, "lip/");
  }

  ServerOptions DefaultServerOptions() const {
    ServerOptions options;
    options.mechanism = PracticalOptions();
    options.dispatcher.max_batch = 16;
    options.dispatcher.max_wait = std::chrono::microseconds(2000);
    return options;
  }

  data::LabeledHypercubeUniverse universe_;
  QueryCatalog catalog_;
  std::vector<std::string> names_;
  std::unique_ptr<data::Dataset> dataset_;
};

TEST(ApiErrorTest, TaxonomyIsLosslessOverCanonicalStatuses) {
  for (int raw = 0; raw <= static_cast<int>(ErrorCode::kInternal); ++raw) {
    const ErrorCode code = static_cast<ErrorCode>(raw);
    if (code == ErrorCode::kOk) continue;
    const Status status = MakeStatus(code, "detail text");
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), LegacyCode(code)) << ErrorCodeName(code);
    // Exact recovery from the canonical tag.
    EXPECT_EQ(ClassifyStatus(status), code) << ErrorCodeName(code);
    // And across a wire round trip of (code, message).
    const Status rebuilt = ToStatus(code, status.message());
    EXPECT_EQ(ClassifyStatus(rebuilt), code) << ErrorCodeName(code);
    EXPECT_EQ(rebuilt.message(), status.message());
  }
  EXPECT_EQ(ClassifyStatus(Status::Ok()), ErrorCode::kOk);
}

TEST(ApiErrorTest, LegacyStatusesClassifyAsDocumented) {
  // What the lower layers emit today, verbatim.
  EXPECT_EQ(ClassifyStatus(
                Status::Halted("pmw-cm: sparse vector exhausted its T updates")),
            ErrorCode::kHalted);
  EXPECT_EQ(ClassifyStatus(
                Status::ResourceExhausted("pmw-cm: k queries already answered")),
            ErrorCode::kBudgetExhausted);
  EXPECT_EQ(ClassifyStatus(Status::ResourceExhausted(
                "quota: analyst 'a' exhausted its 3-query quota")),
            ErrorCode::kQuotaExceeded);
  EXPECT_EQ(ClassifyStatus(Status::InvalidArgument(
                "glm oracle requires a GLM loss")),
            ErrorCode::kMalformedRequest);
  EXPECT_EQ(ClassifyStatus(Status::FailedPrecondition(
                "frontend: dispatcher is shut down")),
            ErrorCode::kShutdown);
  EXPECT_EQ(ClassifyStatus(Status::NotConverged("solver stalled")),
            ErrorCode::kNotConverged);
  EXPECT_EQ(ClassifyStatus(Status::DeadlineExceeded("late")),
            ErrorCode::kDeadlineExpired);
  EXPECT_EQ(ClassifyStatus(Status::Internal("bug")), ErrorCode::kInternal);
}

TEST_F(ApiTest, InProcessCallsMatchSequentialMechanismBitForBit) {
  constexpr uint64_t kSeed = 777;
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                          kSeed);
  // verify_codec: every call crosses the real byte format both ways.
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "analyst-0");

  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle,
                         options.mechanism, kSeed);

  for (int j = 0; j < 40; ++j) {
    const std::string& name = names_[static_cast<size_t>(j * 3) %
                                     names_.size()];
    AnswerEnvelope reply = client.Call(name);
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(name));
    ASSERT_EQ(reply.ok(), want.ok()) << "call " << j;
    if (!want.ok()) {
      EXPECT_EQ(reply.error, ClassifyStatus(want.status()));
      continue;
    }
    ASSERT_EQ(reply.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < reply.answer.size(); ++i) {
      EXPECT_EQ(reply.answer[i], want.value().theta[i])
          << "call " << j << " coord " << i;
    }
    // Serving metadata is consistent with the sequential mechanism.
    EXPECT_EQ(reply.meta.hard_round, want.value().was_update) << j;
    EXPECT_EQ(reply.meta.epoch,
              static_cast<uint64_t>(sequential.hypothesis_version()))
        << j;
    EXPECT_EQ(reply.meta.hard_rounds_remaining,
              sequential.schedule().T - sequential.update_count())
        << j;
    EXPECT_EQ(reply.meta.epsilon_spent,
              sequential.ledger().BasicTotal().epsilon)
        << j;
  }
  endpoint.Shutdown();
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  // The verify-codec loopback really produced frames.
  EXPECT_EQ(endpoint.codec_counters().frames_encoded->Value(), 2 * 40);
  EXPECT_EQ(endpoint.codec_counters().frames_decoded->Value(), 2 * 40);
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 0);
  // And the combined stats table surfaces them.
  const std::string report = endpoint.Report();
  EXPECT_NE(report.find("enc"), std::string::npos);
  EXPECT_NE(report.find("80"), std::string::npos);
}

TEST_F(ApiTest, ProtocolRejectionsAreTypedAndFree) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.quota.per_analyst_queries = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 5);
  InProcessTransport transport(&endpoint);
  Client client(&transport, "bounded");

  EXPECT_TRUE(client.Call(names_[0]).ok());
  EXPECT_TRUE(client.Call(names_[1]).ok());
  const int events = endpoint.service().mechanism().ledger().event_count();
  const long long answered =
      endpoint.service().mechanism().queries_answered();

  // Quota: typed, echoes the request id, costs nothing.
  AnswerEnvelope over = client.Call(names_[2]);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error, ErrorCode::kQuotaExceeded);
  // Ids are namespaced per client (serial << 32 | sequence); this is the
  // client's third call.
  EXPECT_EQ(over.request_id & 0xffffffffu, 3u);
  EXPECT_NE(over.message.find("quota"), std::string::npos);

  // Unknown catalog name: never admitted, never queued.
  AnswerEnvelope unknown = client.Call("no-such-query");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error, ErrorCode::kUnknownQuery);

  // Foreign protocol version: rejected before the catalog lookup.
  QueryRequest alien;
  alien.version = 99;
  alien.analyst_id = "bounded";
  alien.request_id = 1234;
  alien.query_name = names_[0];
  AnswerEnvelope mismatched = endpoint.HandleSync(alien);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.error, ErrorCode::kVersionMismatch);
  EXPECT_EQ(mismatched.request_id, 1234u);

  // None of the three rejections touched the mechanism.
  EXPECT_EQ(endpoint.service().mechanism().ledger().event_count(), events);
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), answered);
  EXPECT_EQ(endpoint.quota().admitted("bounded"), 2);
}

TEST_F(ApiTest, CallBatchMatchesSequentialAndCoalescesFrames) {
  constexpr uint64_t kSeed = 808;
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_shards = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                          kSeed);
  // verify_codec: the batch crosses the real byte format — as ONE frame.
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "batcher");

  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle,
                         options.mechanism, kSeed);

  std::vector<std::string> batch;
  for (int j = 0; j < 6; ++j) {
    batch.push_back(names_[static_cast<size_t>(j) % names_.size()]);
  }
  std::vector<AnswerEnvelope> replies = client.CallBatch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  for (size_t j = 0; j < batch.size(); ++j) {
    const AnswerEnvelope& reply = replies[j];
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(batch[j]));
    ASSERT_EQ(reply.ok(), want.ok()) << "name " << j;
    if (!want.ok()) continue;
    ASSERT_EQ(reply.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < reply.answer.size(); ++i) {
      // Exact: a batched wire call is just framing, never arithmetic.
      EXPECT_EQ(reply.answer[i], want.value().theta[i])
          << "name " << j << " coord " << i;
    }
    EXPECT_EQ(reply.meta.shards, 2u) << j;
    // Consecutive correlation ids, positionally.
    if (j > 0) {
      EXPECT_EQ(reply.request_id, replies[j - 1].request_id + 1);
    }
  }
  endpoint.Shutdown();
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  // One request frame for the whole batch (the syscall the satellite
  // saves) + one answer frame per name.
  EXPECT_EQ(endpoint.codec_counters().frames_encoded->Value(),
            1 + static_cast<long long>(batch.size()));
}

TEST_F(ApiTest, StatsRpcExposesReportAndBudgetView) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_shards = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 31);
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "poller");

  // Drive some traffic so the report has content.
  for (int j = 0; j < 8; ++j) {
    ASSERT_TRUE(client.Call(names_[static_cast<size_t>(j) %
                                   names_.size()]).ok());
  }
  const int events = endpoint.service().mechanism().ledger().event_count();
  const long long answered =
      endpoint.service().mechanism().queries_answered();

  AnswerEnvelope stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.message;
  // The report rode back as the message: dispatcher table + serve table.
  EXPECT_NE(stats.message.find("submitted"), std::string::npos);
  EXPECT_NE(stats.message.find("shards"), std::string::npos);
  // The budget view matches the C++-side accessors.
  EXPECT_EQ(stats.meta.hard_rounds_remaining,
            endpoint.quota().HardRoundsRemaining());
  EXPECT_EQ(stats.meta.epsilon_spent,
            endpoint.service().mechanism().ledger().BasicTotal().epsilon);
  EXPECT_EQ(stats.meta.shards, 2u);
  EXPECT_EQ(stats.meta.epoch,
            static_cast<uint64_t>(
                endpoint.service().mechanism().hypothesis_version()));

  // Stats polls are free: no ledger event, no k-query slot.
  EXPECT_EQ(endpoint.service().mechanism().ledger().event_count(), events);
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), answered);

  // Version gate applies to stats frames too.
  StatsRequest alien;
  alien.version = 77;
  alien.request_id = 5;
  AnswerEnvelope mismatched = endpoint.HandleStats(alien);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.error, ErrorCode::kVersionMismatch);
  EXPECT_EQ(mismatched.request_id, 5u);
  endpoint.Shutdown();
}

struct ClientOutcome {
  std::string analyst_id;
  uint64_t request_id = 0;
  AnswerEnvelope envelope;
};

TEST_F(ApiTest, SocketTranscriptMatchesSequentialReplayOfArrivalLog) {
  constexpr int kAnalysts = 4;
  constexpr int kCallsPerAnalyst = 30;
  constexpr uint64_t kSeed = 555;

  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_threads = 2;
  options.record_arrival_log = true;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                          kSeed);
  const std::string path =
      "/tmp/pmw_api_test_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());

  // Each analyst drives its own connection, closed-loop, from its own
  // thread; the MPSC queue behind the endpoint fixes the interleaving
  // and the arrival log records it.
  std::mutex outcomes_mutex;
  std::vector<ClientOutcome> outcomes;
  std::vector<std::thread> analysts;
  for (int a = 0; a < kAnalysts; ++a) {
    analysts.emplace_back([this, a, &path, &outcomes_mutex, &outcomes] {
      SocketTransport transport(path);
      ASSERT_TRUE(transport.status().ok())
          << transport.status().ToString();
      Client client(&transport, "analyst-" + std::to_string(a));
      for (int j = 0; j < kCallsPerAnalyst; ++j) {
        const std::string& name =
            names_[static_cast<size_t>(a * 7 + j * 3) % names_.size()];
        ClientOutcome outcome;
        outcome.analyst_id = client.analyst_id();
        outcome.envelope = client.Call(name);
        outcome.request_id = outcome.envelope.request_id;
        std::lock_guard<std::mutex> lock(outcomes_mutex);
        outcomes.push_back(std::move(outcome));
      }
      transport.Close();
    });
  }
  for (std::thread& t : analysts) t.join();
  server.Shutdown();
  endpoint.Shutdown();

  const std::vector<ServerEndpoint::ArrivalRecord> arrivals =
      endpoint.ArrivalLog();
  ASSERT_EQ(arrivals.size(),
            static_cast<size_t>(kAnalysts * kCallsPerAnalyst));

  std::map<std::pair<std::string, uint64_t>, const ClientOutcome*> by_key;
  for (const ClientOutcome& outcome : outcomes) {
    by_key[{outcome.analyst_id, outcome.request_id}] = &outcome;
  }

  // Replay the recorded interleaving through the sequential mechanism.
  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle,
                         options.mechanism, kSeed);
  for (size_t position = 0; position < arrivals.size(); ++position) {
    const ServerEndpoint::ArrivalRecord& record = arrivals[position];
    auto it = by_key.find({record.analyst_id, record.client_request_id});
    ASSERT_NE(it, by_key.end()) << "position " << position;
    const AnswerEnvelope& got = it->second->envelope;
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(record.query_name));
    ASSERT_EQ(got.ok(), want.ok()) << "position " << position;
    if (!want.ok()) {
      EXPECT_EQ(got.error, ClassifyStatus(want.status()));
      continue;
    }
    ASSERT_EQ(got.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < got.answer.size(); ++i) {
      // Exact, not NEAR: the claim is bit-identical transcripts, across
      // a real socket and the binary codec.
      EXPECT_EQ(got.answer[i], want.value().theta[i])
          << "position " << position << " coord " << i;
    }
    EXPECT_EQ(got.meta.hard_round, want.value().was_update)
        << "position " << position;
  }

  // The scenario exercised hard rounds, and the ledgers agree
  // event-for-event (labels, params, commit sequence numbers).
  EXPECT_GT(sequential.update_count(), 0);
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(),
            sequential.queries_answered());

  // Wire accounting: one decoded request and one encoded reply per call.
  EXPECT_EQ(endpoint.codec_counters().frames_decoded->Value(),
            kAnalysts * kCallsPerAnalyst);
  EXPECT_EQ(endpoint.codec_counters().frames_encoded->Value(),
            kAnalysts * kCallsPerAnalyst);
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 0);
  EXPECT_GT(endpoint.codec_counters().bytes_in->Value(), 0);
  EXPECT_GT(endpoint.codec_counters().bytes_out->Value(), 0);
}

TEST_F(ApiTest, BatchedCallsAndStatsWorkThroughARealSocket) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_threads = 2;
  options.serve.num_shards = 4;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 17);
  const std::string path =
      "/tmp/pmw_api_batch_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());
  SocketTransport transport(path);
  ASSERT_TRUE(transport.status().ok());
  Client client(&transport, "batcher");

  std::vector<std::string> batch(names_.begin(), names_.begin() + 5);
  std::vector<AnswerEnvelope> replies = client.CallBatch(batch);
  ASSERT_EQ(replies.size(), batch.size());
  for (size_t j = 0; j < replies.size(); ++j) {
    EXPECT_TRUE(replies[j].ok()) << replies[j].message;
    EXPECT_FALSE(replies[j].answer.empty()) << j;
    EXPECT_EQ(replies[j].meta.shards, 4u) << j;
    if (j > 0) {
      EXPECT_EQ(replies[j].request_id, replies[j - 1].request_id + 1);
    }
  }
  // One request frame carried the whole batch over the socket.
  EXPECT_EQ(endpoint.codec_counters().frames_decoded->Value(), 1);

  AnswerEnvelope stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.message;
  EXPECT_NE(stats.message.find("submitted"), std::string::npos);
  EXPECT_EQ(stats.meta.shards, 4u);
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(),
            static_cast<long long>(batch.size()));

  // Metrics and trace polls ride the same connection as answers.
  AnswerEnvelope metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.message;
  EXPECT_NE(metrics.message.find("pmw_serve_queries_total"),
            std::string::npos);
  AnswerEnvelope trace = client.Trace();
  ASSERT_TRUE(trace.ok()) << trace.message;
  EXPECT_NE(trace.message.find("trace "), std::string::npos);

  transport.Close();
  server.Shutdown();
  endpoint.Shutdown();
}

TEST_F(ApiTest, SocketServerAnswersMalformedFramesWithTypedEnvelopes) {
  erm::NoisyGradientOracle oracle;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_,
                          DefaultServerOptions(), 9);
  const std::string path =
      "/tmp/pmw_api_mal_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());
  SocketTransport transport(path);
  ASSERT_TRUE(transport.status().ok());
  Client client(&transport, "prober");

  // A healthy call first, proving the channel works...
  EXPECT_TRUE(client.Call(names_[0]).ok());

  // ...then a future-version frame over a RAW socket: the server must
  // answer with a typed kVersionMismatch envelope (request id 0 — the id
  // was unrecoverable) instead of crashing or going silent.
  QueryRequest alien;
  alien.analyst_id = "prober";
  alien.request_id = 99;
  alien.query_name = names_[0];
  std::string wire;
  EncodeRequest(alien, &wire);
  wire[6] = 42;  // foreign version byte

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(address.sun_path));
  std::memcpy(address.sun_path, path.data(), path.size());
  const int raw_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(raw_fd, 0);
  ASSERT_EQ(::connect(raw_fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  ASSERT_EQ(::write(raw_fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  // Replies arrive in frame order on the raw connection; each read
  // consumes exactly one reply frame.
  std::string reply_bytes;
  const auto read_reply = [&]() -> Result<AnswerEnvelope> {
    size_t frame_size = 0;
    while (ExtractFrame(reply_bytes, &frame_size) == FrameStatus::kNeedMore) {
      char chunk[4096];
      const ssize_t n = ::read(raw_fd, chunk, sizeof(chunk));
      if (n <= 0) return Status::Internal("server closed without answering");
      reply_bytes.append(chunk, static_cast<size_t>(n));
    }
    Result<AnswerEnvelope> reply =
        DecodeAnswer(std::string_view(reply_bytes).substr(0, frame_size));
    reply_bytes.erase(0, frame_size);
    return reply;
  };
  Result<AnswerEnvelope> reply = read_reply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().error, ErrorCode::kVersionMismatch);
  EXPECT_EQ(reply.value().request_id, 0u);

  // A well-formed frame of the retired message type 7 (once the internal
  // shard-RPC family) is one more unexpected type: typed
  // kMalformedRequest, and the connection stays up.
  StatsRequest retired;
  retired.analyst_id = "prober";
  retired.request_id = 100;
  wire.clear();
  EncodeStatsRequest(retired, &wire);
  wire[7] = 7;  // message type byte sits after the length + magic + version
  ASSERT_EQ(PeekMsgType(wire), 7);
  ASSERT_EQ(::write(raw_fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  reply = read_reply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().error, ErrorCode::kMalformedRequest);

  // The same connection keeps serving well-formed requests.
  QueryRequest healthy;
  healthy.analyst_id = "prober";
  healthy.request_id = 101;
  healthy.query_name = names_[1];
  wire.clear();
  EncodeRequest(healthy, &wire);
  ASSERT_EQ(::write(raw_fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  reply = read_reply();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().ok()) << reply.value().message;
  EXPECT_EQ(reply.value().request_id, 101u);
  ::close(raw_fd);

  transport.Close();
  server.Shutdown();
  endpoint.Shutdown();
  // The two healthy calls are the only mechanism traffic; each malformed
  // frame cost one decode error and zero privacy.
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), 2);
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 2);
}

TEST_F(ApiTest, UndecodableFramesResolveEveryCallOfTheFramePromptly) {
  // The server answers a frame it cannot decode with ONE id-0 envelope.
  // Replies come back in frame order and id 0 is reserved, so the client
  // owes that reply to every pending call of its oldest in-flight frame
  // (socket_transport.h) — none of them may wait for Close().
  erm::NoisyGradientOracle oracle;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_,
                          DefaultServerOptions(), 10);
  const std::string path =
      "/tmp/pmw_api_undecodable_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());
  SocketTransport transport(path);
  ASSERT_TRUE(transport.status().ok());

  QueryRequest alien;
  alien.version = 99;
  alien.analyst_id = "prober";
  alien.request_id = 500;
  alien.query_names = {names_[0], names_[1], names_[2]};
  std::vector<std::future<AnswerEnvelope>> batch = transport.SendBatch(alien);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].wait_for(std::chrono::seconds(1)),
              std::future_status::ready)
        << "batched call " << i << " hung";
    const AnswerEnvelope reply = batch[i].get();
    EXPECT_EQ(reply.error, ErrorCode::kVersionMismatch) << i;
    EXPECT_EQ(reply.request_id, 500 + i);
  }

  QueryRequest single;
  single.version = 99;
  single.analyst_id = "prober";
  single.request_id = 600;
  single.query_name = names_[0];
  std::future<AnswerEnvelope> one = transport.Send(single);
  ASSERT_EQ(one.wait_for(std::chrono::seconds(1)), std::future_status::ready)
      << "single call hung";
  const AnswerEnvelope single_reply = one.get();
  EXPECT_EQ(single_reply.error, ErrorCode::kVersionMismatch);
  EXPECT_EQ(single_reply.request_id, 600u);

  // The connection keeps serving well-formed requests.
  Client client(&transport, "prober");
  const AnswerEnvelope healthy = client.Call(names_[3]);
  EXPECT_TRUE(healthy.ok()) << healthy.message;

  // Id 0 could be mistaken for an undecodable-frame reply: refused unsent.
  QueryRequest zero;
  zero.analyst_id = "prober";
  zero.request_id = 0;
  zero.query_name = names_[0];
  EXPECT_EQ(transport.Send(zero).get().error, ErrorCode::kTransportError);

  transport.Close();
  server.Shutdown();
  endpoint.Shutdown();
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), 1);
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 2);
}

TEST_F(ApiTest, TcpFrontDoorWithAuthMatchesSequential) {
  constexpr uint64_t kSeed = 3300;
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_threads = 2;
  options.serve.num_shards = 4;
  options.auth_token = "front-door-secret";
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, kSeed);
  TcpServer server(&endpoint, "127.0.0.1", 0);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  TcpTransport transport("127.0.0.1", server.port());
  ASSERT_TRUE(transport.status().ok()) << transport.status().ToString();
  Client client(&transport, "analyst-0");

  // Un-helloed queries bounce with a typed kAuthRequired — the endpoint
  // never sees them as admissible traffic.
  AnswerEnvelope unauthed = client.Call(names_[0]);
  ASSERT_FALSE(unauthed.ok());
  EXPECT_EQ(unauthed.error, ErrorCode::kAuthRequired);

  // A wrong token does not bind.
  AnswerEnvelope bad_hello = client.Hello("wrong-secret");
  ASSERT_FALSE(bad_hello.ok());
  EXPECT_EQ(bad_hello.error, ErrorCode::kAuthRequired);
  AnswerEnvelope still_unbound = client.Call(names_[0]);
  ASSERT_FALSE(still_unbound.ok());
  EXPECT_EQ(still_unbound.error, ErrorCode::kAuthRequired);

  // The real hello binds analyst-0 to this connection.
  AnswerEnvelope hello = client.Hello("front-door-secret");
  ASSERT_TRUE(hello.ok()) << hello.message;

  // A different analyst on the SAME connection is rejected: quota
  // accounting cannot be spoofed by stamping someone else's id.
  Client impostor(&transport, "analyst-spoof");
  AnswerEnvelope spoofed = impostor.Call(names_[0]);
  ASSERT_FALSE(spoofed.ok());
  EXPECT_EQ(spoofed.error, ErrorCode::kAuthRequired);

  // The bound analyst's transcript matches sequential replay exactly:
  // answers bit for bit, hard-round flags, and the ledger.
  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle, options.mechanism,
                         kSeed);
  for (int j = 0; j < 40; ++j) {
    const std::string& name =
        names_[static_cast<size_t>(j * 3) % names_.size()];
    AnswerEnvelope reply = client.Call(name);
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(name));
    ASSERT_EQ(reply.ok(), want.ok()) << "call " << j << ": " << reply.message;
    if (!want.ok()) {
      EXPECT_EQ(reply.error, ClassifyStatus(want.status())) << j;
      continue;
    }
    ASSERT_EQ(reply.answer.size(), want.value().theta.size()) << j;
    for (size_t i = 0; i < reply.answer.size(); ++i) {
      EXPECT_EQ(reply.answer[i], want.value().theta[i])
          << "call " << j << " coord " << i;
    }
    EXPECT_EQ(reply.meta.hard_round, want.value().was_update) << j;
  }
  EXPECT_GT(sequential.update_count(), 0);

  transport.Close();
  server.Shutdown();
  endpoint.Shutdown();
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
}

TEST(ApiTransportTest, DeadAddressesAreTypedTransportErrors) {
  // Port 1 on loopback: connection refused, fast and deterministic.
  TcpTransport dead_tcp("127.0.0.1", 1);
  EXPECT_FALSE(dead_tcp.status().ok());
  Client tcp_client(&dead_tcp, "nobody");
  AnswerEnvelope tcp_reply = tcp_client.Call("lip/0");
  ASSERT_FALSE(tcp_reply.ok());
  EXPECT_EQ(tcp_reply.error, ErrorCode::kTransportError);
  EXPECT_NE(tcp_reply.message.find("stream transport"), std::string::npos);

  // Unix path that does not exist: same taxonomy, same shape.
  SocketTransport dead_unix("/tmp/pmw_no_such_socket.sock");
  EXPECT_FALSE(dead_unix.status().ok());
  Client unix_client(&dead_unix, "nobody");
  AnswerEnvelope unix_reply = unix_client.Call("lip/0");
  ASSERT_FALSE(unix_reply.ok());
  EXPECT_EQ(unix_reply.error, ErrorCode::kTransportError);

  // A hostname is a typed error, not a DNS lookup: addresses are
  // explicit IPv4.
  TcpTransport named("analyst-gateway.internal", 9999);
  EXPECT_FALSE(named.status().ok());
}

TEST_F(ApiTest, MetricsRpcExposesTheRegistryInBothFormats) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_shards = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 41);
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "scraper");

  for (int j = 0; j < 6; ++j) {
    ASSERT_TRUE(client.Call(names_[static_cast<size_t>(j) %
                                   names_.size()]).ok());
  }
  const int events = endpoint.service().mechanism().ledger().event_count();
  const long long answered =
      endpoint.service().mechanism().queries_answered();

  // Text format: one registry spanning every layer, Prometheus-shaped.
  AnswerEnvelope text = client.Metrics();
  ASSERT_TRUE(text.ok()) << text.message;
  EXPECT_NE(text.message.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.message.find("pmw_serve_queries_total"),
            std::string::npos);
  EXPECT_NE(text.message.find("pmw_frontend_submitted_total"),
            std::string::npos);
  EXPECT_NE(text.message.find("pmw_api_frames_decoded_total"),
            std::string::npos);
  EXPECT_NE(text.message.find("pmw_frontend_queue_wait_us_bucket"),
            std::string::npos);

  // JSON format: same registry, machine-shaped, with histogram moments.
  AnswerEnvelope json = client.Metrics(kMetricsFormatJson);
  ASSERT_TRUE(json.ok()) << json.message;
  EXPECT_NE(json.message.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.message.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.message.find("\"p99\""), std::string::npos);

  // Scrapes are free: no ledger event, no k-query slot.
  EXPECT_EQ(endpoint.service().mechanism().ledger().event_count(), events);
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(), answered);

  // Unknown format and foreign version are typed rejections.
  MetricsRequest weird;
  weird.analyst_id = "scraper";
  weird.request_id = 7;
  weird.format = 9;
  AnswerEnvelope rejected = endpoint.HandleMetrics(weird);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error, ErrorCode::kMalformedRequest);
  EXPECT_EQ(rejected.request_id, 7u);
  MetricsRequest alien;
  alien.version = 77;
  alien.request_id = 8;
  AnswerEnvelope mismatched = endpoint.HandleMetrics(alien);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.error, ErrorCode::kVersionMismatch);
  endpoint.Shutdown();
}

TEST_F(ApiTest, TraceRpcRendersSpanTreesAndHonorsTheDisableKnob) {
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_shards = 2;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, 43);
  InProcessTransport transport(&endpoint, /*verify_codec=*/true);
  Client client(&transport, "tracer");

  for (int j = 0; j < 6; ++j) {
    ASSERT_TRUE(client.Call(names_[static_cast<size_t>(j) %
                                   names_.size()]).ok());
  }
  // min_total_us=0 keeps everything; the tree names its phases.
  AnswerEnvelope trace = client.Trace(/*min_total_us=*/0,
                                      /*max_traces=*/16);
  ASSERT_TRUE(trace.ok()) << trace.message;
  EXPECT_NE(trace.message.find("trace "), std::string::npos);
  EXPECT_NE(trace.message.find("analyst=tracer"), std::string::npos);
  EXPECT_NE(trace.message.find("queue"), std::string::npos);
  EXPECT_NE(trace.message.find("commit"), std::string::npos);

  // An impossible threshold filters everything out, gracefully.
  AnswerEnvelope empty = client.Trace(/*min_total_us=*/~0ULL >> 1,
                                      /*max_traces=*/16);
  ASSERT_TRUE(empty.ok());
  EXPECT_NE(empty.message.find("(no traces over threshold)"),
            std::string::npos);

  // Version gate applies to trace frames too.
  TraceRequest alien;
  alien.version = 77;
  alien.request_id = 9;
  AnswerEnvelope mismatched = endpoint.HandleTrace(alien);
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.error, ErrorCode::kVersionMismatch);
  endpoint.Shutdown();

  // A tracing-disabled endpoint still answers the poll — with a note,
  // not an error — so dashboards degrade instead of breaking.
  ServerOptions dark = DefaultServerOptions();
  dark.enable_tracing = false;
  erm::NoisyGradientOracle dark_oracle;
  ServerEndpoint dark_endpoint(dataset_.get(), &dark_oracle, &catalog_,
                               dark, 43);
  InProcessTransport dark_transport(&dark_endpoint, /*verify_codec=*/true);
  Client dark_client(&dark_transport, "tracer");
  ASSERT_TRUE(dark_client.Call(names_[0]).ok());
  AnswerEnvelope disabled = dark_client.Trace();
  ASSERT_TRUE(disabled.ok());
  EXPECT_NE(disabled.message.find("(tracing disabled on this endpoint)"),
            std::string::npos);
  dark_endpoint.Shutdown();
}

TEST_F(ApiTest, ReplayStaysBitIdenticalUnderTracingAndLiveScrapers) {
  // The observability invariant, end to end: tracing on, spans recorded,
  // and a scraper hammering metrics/trace polls over its own connection
  // must leave the transcript exactly where sequential replay puts it.
  constexpr int kAnalysts = 3;
  constexpr int kCallsPerAnalyst = 20;
  constexpr uint64_t kSeed = 777;

  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  options.serve.num_threads = 2;
  options.serve.num_shards = 2;
  options.record_arrival_log = true;
  options.enable_tracing = true;
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options,
                          kSeed);
  const std::string path =
      "/tmp/pmw_api_obs_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&endpoint, path);
  ASSERT_TRUE(server.Start().ok());

  std::mutex outcomes_mutex;
  std::vector<ClientOutcome> outcomes;
  std::atomic<bool> done{false};
  std::thread scraper([&path, &done] {
    SocketTransport transport(path);
    ASSERT_TRUE(transport.status().ok());
    Client client(&transport, "scraper");
    while (!done.load(std::memory_order_relaxed)) {
      AnswerEnvelope text = client.Metrics(kMetricsFormatText);
      ASSERT_TRUE(text.ok()) << text.message;
      ASSERT_FALSE(text.message.empty());
      AnswerEnvelope json = client.Metrics(kMetricsFormatJson);
      ASSERT_TRUE(json.ok()) << json.message;
      AnswerEnvelope trace = client.Trace(/*min_total_us=*/0,
                                          /*max_traces=*/8);
      ASSERT_TRUE(trace.ok()) << trace.message;
    }
    transport.Close();
  });
  std::vector<std::thread> analysts;
  for (int a = 0; a < kAnalysts; ++a) {
    analysts.emplace_back([this, a, &path, &outcomes_mutex, &outcomes] {
      SocketTransport transport(path);
      ASSERT_TRUE(transport.status().ok());
      Client client(&transport, "analyst-" + std::to_string(a));
      for (int j = 0; j < kCallsPerAnalyst; ++j) {
        const std::string& name =
            names_[static_cast<size_t>(a * 5 + j * 3) % names_.size()];
        ClientOutcome outcome;
        outcome.analyst_id = client.analyst_id();
        outcome.envelope = client.Call(name);
        outcome.request_id = outcome.envelope.request_id;
        std::lock_guard<std::mutex> lock(outcomes_mutex);
        outcomes.push_back(std::move(outcome));
      }
      transport.Close();
    });
  }
  for (std::thread& t : analysts) t.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  server.Shutdown();
  endpoint.Shutdown();

  const std::vector<ServerEndpoint::ArrivalRecord> arrivals =
      endpoint.ArrivalLog();
  ASSERT_EQ(arrivals.size(),
            static_cast<size_t>(kAnalysts * kCallsPerAnalyst));

  std::map<std::pair<std::string, uint64_t>, const ClientOutcome*> by_key;
  for (const ClientOutcome& outcome : outcomes) {
    by_key[{outcome.analyst_id, outcome.request_id}] = &outcome;
  }
  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle,
                         options.mechanism, kSeed);
  for (size_t position = 0; position < arrivals.size(); ++position) {
    const ServerEndpoint::ArrivalRecord& record = arrivals[position];
    auto it = by_key.find({record.analyst_id, record.client_request_id});
    ASSERT_NE(it, by_key.end()) << "position " << position;
    const AnswerEnvelope& got = it->second->envelope;
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(record.query_name));
    ASSERT_EQ(got.ok(), want.ok()) << "position " << position;
    if (!want.ok()) {
      EXPECT_EQ(got.error, ClassifyStatus(want.status()));
      continue;
    }
    ASSERT_EQ(got.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < got.answer.size(); ++i) {
      EXPECT_EQ(got.answer[i], want.value().theta[i])
          << "position " << position << " coord " << i;
    }
  }
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(),
            sequential.queries_answered());
  // The scraper's frames decoded cleanly alongside the query traffic.
  EXPECT_EQ(endpoint.codec_counters().decode_errors->Value(), 0);
  // The ring saw the traffic (publication happens post-reply, so the
  // exact count is whatever committed before Shutdown drained).
  ASSERT_NE(endpoint.trace_recorder(), nullptr);
  EXPECT_GT(endpoint.trace_recorder()->published(), 0u);
}

TEST_F(ApiTest, ArrivalLogHoldsExactlyTheCommittedRequests) {
  // The replay guarantee rests on the arrival log holding every request
  // the mechanism committed — its own kHalted included — and nothing the
  // front door turned away first: quota rejections, deadline expiries
  // and the door's predicted kHalted.
  constexpr uint64_t kSeed = 2024;
  constexpr int kPipelinedAnalysts = 16;
  constexpr size_t kPipelined = 2 * kPipelinedAnalysts;
  erm::NoisyGradientOracle oracle;
  ServerOptions options = DefaultServerOptions();
  // A small T and a tight alpha: hard rounds keep firing on the small
  // catalog until the sparse vector halts.
  options.mechanism.override_updates = 3;
  options.mechanism.alpha = 0.05;
  options.quota.per_analyst_queries = 2;
  options.record_arrival_log = true;
  // The pipelined phase lands in one dispatcher batch: every request in
  // it passes the door before the first one is served.
  options.dispatcher.max_batch = kPipelined;
  options.dispatcher.max_wait = std::chrono::milliseconds(50);
  ServerEndpoint endpoint(dataset_.get(), &oracle, &catalog_, options, kSeed);
  InProcessTransport transport(&endpoint);

  struct Sent {
    std::string analyst_id;
    std::string query_name;
    AnswerEnvelope reply;
  };
  std::vector<Sent> committed;

  // Quota: two calls fit the per-analyst quota (at most two hard rounds,
  // so T is not spent); the third is rejected at the door.
  Client capped(&transport, "capped");
  for (int j = 0; j < 2; ++j) {
    const std::string& name = names_[static_cast<size_t>(j)];
    committed.push_back({capped.analyst_id(), name, capped.Call(name)});
    ASSERT_TRUE(committed.back().reply.ok()) << committed.back().reply.message;
  }
  const AnswerEnvelope over_quota = capped.Call(names_[2]);
  ASSERT_EQ(over_quota.error, ErrorCode::kQuotaExceeded);

  // Deadline: a lone request lingers max_wait in the queue, far past its
  // 1 us budget, and expires before the mechanism sees it.
  Client late(&transport, "late");
  const AnswerEnvelope expired =
      late.Call(names_[3], std::chrono::microseconds(-1));
  ASSERT_EQ(expired.error, ErrorCode::kDeadlineExpired);

  // Mechanism halt: one pipelined window spends the rest of T mid-batch;
  // the requests behind it were admitted, reach the mechanism, and are
  // answered with its own kHalted.
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::future<AnswerEnvelope>> pending;
  for (int a = 0; a < kPipelinedAnalysts; ++a) {
    clients.push_back(
        std::make_unique<Client>(&transport, "burst-" + std::to_string(a)));
    for (int j = 0; j < 2; ++j) {
      const std::string& name =
          names_[static_cast<size_t>(a * 2 + j) % names_.size()];
      committed.push_back({clients.back()->analyst_id(), name, {}});
      pending.push_back(clients.back()->CallAsync(name));
    }
  }
  int mechanism_halts = 0;
  for (size_t i = 0; i < pending.size(); ++i) {
    Sent& sent = committed[committed.size() - pending.size() + i];
    sent.reply = pending[i].get();
    if (sent.reply.error == ErrorCode::kHalted) ++mechanism_halts;
  }
  EXPECT_GT(mechanism_halts, 0) << "the pipelined window never spent T";

  // Door-predicted halt: with T spent, the quota manager answers kHalted
  // without queueing the request.
  Client after(&transport, "after-halt");
  const AnswerEnvelope door_halt = after.Call(names_[0]);
  ASSERT_EQ(door_halt.error, ErrorCode::kHalted);
  endpoint.Shutdown();

  const std::vector<ServerEndpoint::ArrivalRecord> arrivals =
      endpoint.ArrivalLog();
  ASSERT_EQ(arrivals.size(), committed.size());
  erm::NoisyGradientOracle replay_oracle;
  core::PmwCm sequential(dataset_.get(), &replay_oracle, options.mechanism,
                         kSeed);
  for (size_t position = 0; position < arrivals.size(); ++position) {
    const ServerEndpoint::ArrivalRecord& record = arrivals[position];
    const Sent& sent = committed[position];
    ASSERT_EQ(record.analyst_id, sent.analyst_id) << "position " << position;
    ASSERT_EQ(record.client_request_id, sent.reply.request_id)
        << "position " << position;
    ASSERT_EQ(record.query_name, sent.query_name) << "position " << position;
    Result<core::PmwAnswer> want =
        sequential.AnswerQuery(*catalog_.Find(record.query_name));
    ASSERT_EQ(sent.reply.ok(), want.ok()) << "position " << position;
    if (!want.ok()) {
      EXPECT_EQ(sent.reply.error, ClassifyStatus(want.status())) << position;
      continue;
    }
    ASSERT_EQ(sent.reply.answer.size(), want.value().theta.size());
    for (size_t i = 0; i < sent.reply.answer.size(); ++i) {
      EXPECT_EQ(sent.reply.answer[i], want.value().theta[i])
          << "position " << position << " coord " << i;
    }
    EXPECT_EQ(sent.reply.meta.hard_round, want.value().was_update) << position;
  }
  EXPECT_TRUE(sequential.halted());
  EXPECT_EQ(endpoint.service().mechanism().ledger().Report(),
            sequential.ledger().Report());
  EXPECT_EQ(endpoint.service().mechanism().queries_answered(),
            sequential.queries_answered());
}

TEST_F(ApiTest, VerifyCodecLoopbackNeedsNoHelloAndMatchesTheSocketPath) {
  // The in-process transport is a trusted caller: even in verify-codec
  // mode, where every frame goes through the endpoint's frame handler,
  // an endpoint with an auth token answers it without a hello. The
  // answers are the ones an authenticated socket client gets.
  constexpr uint64_t kSeed = 6060;
  ServerOptions options = DefaultServerOptions();
  options.auth_token = "front-door-secret";

  erm::NoisyGradientOracle loopback_oracle;
  ServerEndpoint loopback(dataset_.get(), &loopback_oracle, &catalog_, options,
                          kSeed);
  InProcessTransport transport(&loopback, /*verify_codec=*/true);
  Client trusted(&transport, "analyst-0");

  erm::NoisyGradientOracle socket_oracle;
  ServerEndpoint remote(dataset_.get(), &socket_oracle, &catalog_, options,
                        kSeed);
  const std::string path =
      "/tmp/pmw_api_trusted_" + std::to_string(::getpid()) + ".sock";
  SocketServer server(&remote, path);
  ASSERT_TRUE(server.Start().ok());
  SocketTransport socket(path);
  ASSERT_TRUE(socket.status().ok()) << socket.status().ToString();
  Client authed(&socket, "analyst-0");
  // The socket path does demand the hello.
  ASSERT_EQ(authed.Call(names_[0]).error, ErrorCode::kAuthRequired);
  ASSERT_TRUE(authed.Hello("front-door-secret").ok());

  for (int j = 0; j < 12; ++j) {
    const std::string& name =
        names_[static_cast<size_t>(j * 3) % names_.size()];
    const AnswerEnvelope got = trusted.Call(name);
    const AnswerEnvelope want = authed.Call(name);
    ASSERT_EQ(got.error, want.error) << "call " << j << ": " << got.message;
    ASSERT_TRUE(got.ok()) << got.message;
    EXPECT_EQ(got.answer, want.answer) << "call " << j;
    EXPECT_EQ(got.meta.hard_round, want.meta.hard_round) << "call " << j;
  }
  const std::vector<std::string> batch(names_.begin(), names_.begin() + 3);
  const std::vector<AnswerEnvelope> got_batch = trusted.CallBatch(batch);
  const std::vector<AnswerEnvelope> want_batch = authed.CallBatch(batch);
  ASSERT_EQ(got_batch.size(), want_batch.size());
  for (size_t j = 0; j < got_batch.size(); ++j) {
    ASSERT_TRUE(got_batch[j].ok()) << got_batch[j].message;
    EXPECT_EQ(got_batch[j].answer, want_batch[j].answer) << "name " << j;
  }
  // The polls need no hello either.
  EXPECT_TRUE(trusted.Stats().ok());
  EXPECT_TRUE(trusted.Metrics().ok());
  EXPECT_TRUE(trusted.Trace().ok());

  socket.Close();
  server.Shutdown();
  remote.Shutdown();
  loopback.Shutdown();
  EXPECT_EQ(loopback.service().mechanism().ledger().Report(),
            remote.service().mechanism().ledger().Report());
  EXPECT_EQ(loopback.codec_counters().decode_errors->Value(), 0);
}

}  // namespace
}  // namespace api
}  // namespace pmw
