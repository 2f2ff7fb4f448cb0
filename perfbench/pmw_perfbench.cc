// pmw_perfbench — the PMW-CM benchmark's two workloads, driven through
// the api front door, plus a per-layer replay through core::PmwCm.
//
//   update_mix_2p20   |X| = 2^20 logistic data, a YCSB-A-style mix of
//                     fresh and repeated catalog queries from one
//                     generator thread with a fixed window in flight.
//                     Hard rounds (oracle solve + dual-certificate MW
//                     update over all of X) and the re-prepares every
//                     update forces dominate.
//   read_zipf_socket  |X| = 2^7 near-uniform data, zipfian reads from
//                     closed-loop analysts on Unix-socket connections.
//                     After warm-up every answer is a free plan-cache
//                     hit; the time sits in codec, socket, dispatcher.
//
// Every run checks its outputs (see Gate below) and prints ONE json line
// with the raw results; perfbench/run.py builds this program, runs it,
// and turns that line into the benchmark's result line.
//
// The per-layer numbers come from the benchmark's own timing of public
// calls: a timing erm::Oracle decorator around Oracle::Solve, a timing
// core::ShardRunner around the payoff sweep and the MW update's
// per-shard phases, and direct calls to PmwCm::SnapshotHypothesis and
// ErrorOracle::Minimize / AnswerError for the prepare path. Serving-side
// numbers come only from reply ServingMeta and the registry scrape.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/catalog.h"
#include "api/client.h"
#include "api/codec.h"
#include "api/endpoint.h"
#include "api/in_process_transport.h"
#include "api/socket_transport.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "convex/auto_solver.h"
#include "convex/empirical_loss.h"
#include "core/error.h"
#include "core/pmw_cm.h"
#include "data/binary_universe.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/histogram.h"
#include "erm/nonprivate_oracle.h"

#ifndef PMW_BENCH_BUILD_TYPE
#define PMW_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PMW_BENCH_COMPILER
#define PMW_BENCH_COMPILER "unknown"
#endif

namespace pmw {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

// Fixed inputs: the seed of a run orders its requests; the data model,
// the catalog and the mechanism's own randomness stay the same.
constexpr uint64_t kCatalogSeed = 0x5eedca7a109ULL;
constexpr uint64_t kServerSeed = 4321;
constexpr double kEpsilon = 2.0;
constexpr double kDelta = 1e-6;
constexpr double kBeta = 0.05;
/// Requests (with their replies) the codec timing re-encodes.
constexpr long long kCodecSample = 50000;

// ---------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Workload shape; run.py passes the published values (or the tiny
  /// self-check ones).
  int dim = 0;
  int records = 0;
  int catalog = 0;
  double alpha = 0.0;
  /// Inner-solver iteration cap; 0 keeps the library default.
  int solver_iters = 0;
  /// update_mix_2p20: requests in the fixed transcript.
  long long requests = 0;
  /// Setups per run; setup_s is their median.
  int setups = 3;
  /// Directory (relative to the working directory) for socket files.
  std::string run_dir = ".bench_build";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dim") {
      args->dim = std::atoi(value.c_str());
    } else if (key == "--records") {
      args->records = std::atoi(value.c_str());
    } else if (key == "--catalog") {
      args->catalog = std::atoi(value.c_str());
    } else if (key == "--alpha") {
      args->alpha = std::strtod(value.c_str(), nullptr);
    } else if (key == "--solver-iters") {
      args->solver_iters = std::atoi(value.c_str());
    } else if (key == "--requests") {
      args->requests = std::atoll(value.c_str());
    } else if (key == "--setups") {
      args->setups = std::atoi(value.c_str());
    } else if (key == "--run-dir") {
      args->run_dir = value;
    } else {
      std::fprintf(stderr, "pmw_perfbench: unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if ((argc - 1) % 2 != 0) {
    std::fprintf(stderr, "pmw_perfbench: flags take one value each\n");
    return false;
  }
  return args->dim > 0 && args->records > 0 && args->catalog > 0 &&
         args->alpha > 0.0 && args->setups > 0 && args->seconds > 0.0;
}

// ---------------------------------------------------------------------
// Small helpers: quantiles, digests, json.
// ---------------------------------------------------------------------

double Pct(const std::vector<double>& values, double q) {
  return values.empty() ? 0.0 : Quantile(values, q);
}

/// FNV-1a over raw bytes: transcript digests.
class Digest {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }
  void Doubles(const std::vector<double>& values) {
    U64(values.size());
    if (!values.empty()) Bytes(values.data(), values.size() * sizeof(double));
  }
  void Str(const std::string& text) {
    U64(text.size());
    Bytes(text.data(), text.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// A flat json object writer; numbers keep all their digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, long long value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }
  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// min(4, nproc): the serve pool, and the benchmark's own worker pools.
int ServeThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, cores > 0 ? cores : 1u));
}

/// Uniform double in [0, 1) from one engine word (platform-independent).
double Uniform01(std::mt19937_64& engine) {
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

/// A seed-fixed permutation of [0, n) (Fisher-Yates on raw engine words,
/// so the same seed gives the same order on every platform).
std::vector<int> Permutation(int n, std::mt19937_64& engine) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(engine() % static_cast<uint64_t>(i + 1));
    std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
  }
  return order;
}

/// Zipfian ranks: P(rank = i) proportional to 1 / (i + 1)^theta over the
/// first n ranks, where n may grow between draws.
class ZipfRanks {
 public:
  explicit ZipfRanks(double theta) : theta_(theta) {}

  int Draw(int n, std::mt19937_64& engine) {
    while (static_cast<int>(cdf_.size()) < n) {
      const double weight =
          1.0 / std::pow(static_cast<double>(cdf_.size() + 1), theta_);
      cdf_.push_back((cdf_.empty() ? 0.0 : cdf_.back()) + weight);
    }
    const double u = Uniform01(engine) * cdf_[static_cast<size_t>(n - 1)];
    const auto it = std::upper_bound(cdf_.begin(), cdf_.begin() + n, u);
    return std::min(static_cast<int>(it - cdf_.begin()), n - 1);
  }

 private:
  double theta_;
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------
// Workload shapes and the server stack.
// ---------------------------------------------------------------------

struct Shape {
  bool logistic = false;
  bool socket = false;
  int shards = 1;
  int override_updates = 32;
  long long max_queries = 0;
  /// What the run will ask of the mechanism, warm-up included: the built
  /// mechanism's k and T must cover it or the run refuses to start.
  long long planned_requests = 0;
  long long planned_hard_rounds = 0;
};

/// One built server: universe, data, catalog, endpoint and the transport
/// the workload drives it through. Member order is teardown order in
/// reverse: the socket server stops before the endpoint it serves.
struct Stack {
  std::unique_ptr<data::LabeledHypercubeUniverse> universe;
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<api::QueryCatalog> catalog;
  std::vector<std::string> names;
  api::ServerOptions options;
  std::unique_ptr<api::ServerEndpoint> endpoint;
  std::unique_ptr<api::SocketServer> socket_server;
  std::unique_ptr<api::InProcessTransport> in_process;
  std::string socket_path;
  /// Warm-up replies (read_zipf_socket), in issue order.
  std::vector<api::AnswerEnvelope> warmup_replies;
  double data_s = 0.0;
  double endpoint_s = 0.0;
  double warmup_s = 0.0;

  ~Stack() {
    if (socket_server != nullptr) socket_server->Shutdown();
    in_process.reset();
    if (endpoint != nullptr) endpoint->Shutdown();
  }
};

api::ServerOptions MakeOptions(const Args& args, const Shape& shape,
                               double catalog_scale, bool record_arrival_log) {
  api::ServerOptions options;
  options.mechanism.alpha = args.alpha;
  options.mechanism.beta = kBeta;
  options.mechanism.privacy = {kEpsilon, kDelta};
  options.mechanism.scale = std::max(2.0, catalog_scale);
  options.mechanism.max_queries = shape.max_queries;
  options.mechanism.override_updates = shape.override_updates;
  if (args.solver_iters > 0) {
    options.mechanism.solver.max_iters = args.solver_iters;
  }
  options.serve.num_threads = ServeThreads();
  options.serve.num_shards = shape.shards;
  options.oracle = api::OracleKind::kNonPrivate;
  options.record_arrival_log = record_arrival_log;
  return options;
}

/// Whether the built mechanism's own query budget k and update budget T
/// cover the shape's plan; says on stderr which does not.
bool Covers(const Stack& stack, const Shape& shape) {
  const core::PmwCm& mechanism = stack.endpoint->service().mechanism();
  if (mechanism.queries_remaining() < shape.planned_requests) {
    std::fprintf(stderr,
                 "pmw_perfbench: k leaves %lld queries, the run plans %lld\n",
                 mechanism.queries_remaining(), shape.planned_requests);
    return false;
  }
  if (mechanism.schedule().T < shape.planned_hard_rounds) {
    std::fprintf(stderr,
                 "pmw_perfbench: T is %d, the run allows %lld hard rounds\n",
                 mechanism.schedule().T, shape.planned_hard_rounds);
    return false;
  }
  return true;
}

/// Builds a stack; for the socket workload also starts the Unix-socket
/// server and runs the warm-up pass (one request per catalog query).
/// Returns null (with a message on stderr) when a step fails or the
/// mechanism's k or T does not cover the shape's plan.
std::unique_ptr<Stack> BuildStack(const Args& args, const Shape& shape,
                                  bool record_arrival_log, int instance) {
  auto stack = std::make_unique<Stack>();
  Clock::time_point start = Clock::now();
  stack->universe = std::make_unique<data::LabeledHypercubeUniverse>(args.dim);
  data::Histogram truth = [&] {
    if (shape.logistic) {
      // The scenario harness's logistic ground truth: alternating-sign
      // theta*, unbiased coordinates, temperature 0.3.
      std::vector<double> theta_star(static_cast<size_t>(args.dim));
      for (int j = 0; j < args.dim; ++j) {
        theta_star[static_cast<size_t>(j)] = (j % 2 == 0 ? 0.8 : -0.8);
      }
      std::vector<double> biases(static_cast<size_t>(args.dim), 0.5);
      return data::LogisticModelDistribution(*stack->universe, theta_star,
                                             biases, 0.3);
    }
    return data::Histogram::Uniform(stack->universe->size());
  }();
  stack->dataset = std::make_unique<data::Dataset>(
      data::RoundedDataset(*stack->universe, truth, args.records));
  stack->data_s = SecondsSince(start);

  start = Clock::now();
  stack->catalog = std::make_unique<api::QueryCatalog>();
  api::WorkloadSpec family;
  family.family = api::WorkloadSpec::Family::kLipschitz;
  family.dim = args.dim;
  stack->names =
      stack->catalog->Populate(family, args.catalog, kCatalogSeed, "q/");
  stack->options =
      MakeOptions(args, shape, stack->catalog->scale(), record_arrival_log);
  stack->endpoint = std::make_unique<api::ServerEndpoint>(
      stack->dataset.get(), stack->catalog.get(), stack->options,
      kServerSeed);
  if (!Covers(*stack, shape)) return nullptr;
  if (shape.socket) {
    stack->socket_path = args.run_dir + "/pmwbench-" +
                         std::to_string(getpid()) + "-" +
                         std::to_string(instance) + ".sock";
    ::unlink(stack->socket_path.c_str());
    stack->socket_server = std::make_unique<api::SocketServer>(
        stack->endpoint.get(), stack->socket_path);
    const Status started = stack->socket_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "pmw_perfbench: socket server: %s\n",
                   started.ToString().c_str());
      return nullptr;
    }
  } else {
    stack->in_process =
        std::make_unique<api::InProcessTransport>(stack->endpoint.get());
  }
  stack->endpoint_s = SecondsSince(start);

  if (shape.socket) {
    start = Clock::now();
    api::SocketTransport transport(stack->socket_path);
    if (!transport.status().ok()) {
      std::fprintf(stderr, "pmw_perfbench: warm-up connect: %s\n",
                   transport.status().ToString().c_str());
      return nullptr;
    }
    // One batched frame: the pass costs the serving work, not one
    // dispatcher batching window per catalog query.
    api::Client client(&transport, "warmup");
    stack->warmup_replies = client.CallBatch(stack->names);
    transport.Close();
    stack->warmup_s = SecondsSince(start);
  }
  return stack;
}

// ---------------------------------------------------------------------
// Front-door observations.
// ---------------------------------------------------------------------

/// Distinct answers per catalog query, with how many replies carried
/// each. Replies keep a pointer into the table instead of a copy, so the
/// benchmark's own memory stays out of peak_rss_mb; a deque never moves
/// its elements, so pointers stay valid.
class AnswerTable {
 public:
  struct Entry {
    std::vector<double> answer;
    long long replies = 0;
  };

  const std::vector<double>* Intern(int name_index,
                                    std::vector<double> answer) {
    std::deque<Entry>& distinct = by_name_[name_index];
    for (Entry& known : distinct) {
      if (known.answer == answer) {
        ++known.replies;
        return &known.answer;
      }
    }
    distinct.push_back({std::move(answer), 1});
    return &distinct.back().answer;
  }

  const std::map<int, std::deque<Entry>>& by_name() const { return by_name_; }

 private:
  std::map<int, std::deque<Entry>> by_name_;
};

/// One reply as the client saw it.
struct Observation {
  int analyst = 0;
  int name_index = 0;
  uint64_t request_id = 0;
  double latency_us = 0.0;
  /// Completion time, seconds from the start of the timed window.
  double done_s = 0.0;
  api::ErrorCode error = api::ErrorCode::kOk;
  api::ServingMeta meta;
  const std::vector<double>* answer = nullptr;
};

Observation Observe(int analyst, int name_index, api::AnswerEnvelope reply,
                    double latency_us, AnswerTable* answers) {
  Observation obs;
  obs.analyst = analyst;
  obs.name_index = name_index;
  obs.request_id = reply.request_id;
  obs.latency_us = latency_us;
  obs.error = reply.error;
  obs.meta = reply.meta;
  // Error replies carry no answer; only kOk answers enter the table.
  static const std::vector<double> kNoAnswer;
  obs.answer = reply.error == api::ErrorCode::kOk
                   ? answers->Intern(name_index, std::move(reply.answer))
                   : &kNoAnswer;
  return obs;
}

/// One slice of a timed window: its span and the client-latency figures
/// of the replies that completed in it.
struct SliceStats {
  double span_s = 0.0;
  long long ok = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double soft_p50_ms = 0.0;
};

/// What every workload reports from its timed window. Counts and slice
/// figures cover every reply; `observations` holds the replies the run
/// keeps (see Recorder).
struct FrontDoor {
  std::vector<Observation> observations;
  /// Every kOk answer, counted; the observations point into it.
  std::unique_ptr<AnswerTable> answers = std::make_unique<AnswerTable>();
  long long issued = 0;
  long long ok = 0;
  long long hard_rounds = 0;
  std::vector<SliceStats> slices;
  double elapsed_s = 0.0;
  double epsilon_spent = 0.0;
  long long hard_rounds_remaining = -1;
  std::string scrape_json;
  std::string ledger_report;
};

/// Feeds a run's replies, in completion order, into its FrontDoor: the
/// counts, the figures of each slice of the window (a slice is closed,
/// and its latencies dropped, as soon as a later one starts), and the
/// observations the run keeps: every one when `keep` is negative, else
/// the first `keep`. A long read run thus holds no per-request record it
/// does not need, and its memory does not grow with its goodput.
class Recorder {
 public:
  /// `slices` equal slices over `window_s`; replies completing after the
  /// window (the requests in flight when it closed) join the last one.
  Recorder(FrontDoor* out, int slices, double window_s, long long keep)
      : out_(out),
        slices_(std::max(1, slices)),
        slice_s_(window_s / static_cast<double>(std::max(1, slices))),
        keep_(keep) {}

  void Add(Observation obs) {
    ++out_->issued;
    if (obs.meta.hard_round) ++out_->hard_rounds;
    const int at =
        slices_ == 1
            ? 0
            : std::min(slices_ - 1, static_cast<int>(obs.done_s / slice_s_));
    while (open_ < at) Close(static_cast<double>(open_ + 1) * slice_s_);
    if (obs.error == api::ErrorCode::kOk) {
      ++out_->ok;
      ++open_ok_;
      const double ms = obs.latency_us / 1e3;
      latency_ms_.push_back(ms);
      if (!obs.meta.hard_round) soft_ms_.push_back(ms);
    }
    if (keep_ < 0 ||
        static_cast<long long>(out_->observations.size()) < keep_) {
      out_->observations.push_back(std::move(obs));
    }
  }

  /// Closes the remaining slices; the last one ends at `elapsed_s`.
  void Finish(double elapsed_s) {
    out_->elapsed_s = elapsed_s;
    while (open_ < slices_ - 1) {
      Close(static_cast<double>(open_ + 1) * slice_s_);
    }
    Close(elapsed_s);
  }

 private:
  void Close(double end_s) {
    SliceStats slice;
    slice.span_s = end_s - static_cast<double>(open_) * slice_s_;
    slice.ok = open_ok_;
    slice.p50_ms = Pct(latency_ms_, 0.50);
    slice.p90_ms = Pct(latency_ms_, 0.90);
    slice.p99_ms = Pct(latency_ms_, 0.99);
    slice.soft_p50_ms = Pct(soft_ms_, 0.50);
    out_->slices.push_back(slice);
    ++open_;
    open_ok_ = 0;
    latency_ms_.clear();
    soft_ms_.clear();
  }

  FrontDoor* out_;
  int slices_;
  double slice_s_;
  long long keep_;
  int open_ = 0;
  long long open_ok_ = 0;
  std::vector<double> latency_ms_, soft_ms_;
};

/// The update mix's request order, fixed by the seed: even positions ask
/// the catalog's queries for the first time, in catalog order; odd ones
/// repeat an already-asked query, zipfian over the order of first asks
/// (earlier-asked queries are hotter), drawn from the seed — exactly half
/// fresh, like YCSB-A's half updates. The fresh half is the same for
/// every seed, so seeds differ in which queries are asked again, not in
/// the mix of loss kinds the transcript introduces.
std::vector<int> UpdateMixOrder(uint64_t seed, int catalog_size,
                                long long requests) {
  std::mt19937_64 engine(seed * 0x9e3779b97f4a7c15ULL + 17);
  ZipfRanks zipf(0.99);
  int asked = 0;
  std::vector<int> order;
  order.reserve(static_cast<size_t>(requests));
  for (long long i = 0; i < requests; ++i) {
    if (i % 2 == 0 && asked < catalog_size) {
      order.push_back(asked++);
    } else {
      order.push_back(zipf.Draw(asked, engine));
    }
  }
  return order;
}

void PollServer(api::Transport* transport, FrontDoor* out) {
  api::Client poller(transport, "perfbench-poller");
  const api::AnswerEnvelope stats = poller.Stats();
  out->epsilon_spent = stats.meta.epsilon_spent;
  out->hard_rounds_remaining = stats.meta.hard_rounds_remaining;
  out->scrape_json = poller.Metrics(api::kMetricsFormatJson).message;
  // One output line: json whitespace between tokens is insignificant.
  std::replace(out->scrape_json.begin(), out->scrape_json.end(), '\n', ' ');
}

/// update_mix_2p20's timed window: one generator thread keeps `window`
/// requests in flight in the fixed order.
FrontDoor DriveUpdateMix(Stack* stack, const std::vector<int>& order,
                         size_t window) {
  FrontDoor out;
  // One slice (the whole transcript), every observation kept: the replay
  // checks each one.
  Recorder recorder(&out, /*slices=*/1, /*window_s=*/0.0, /*keep=*/-1);
  api::Client client(stack->in_process.get(), "analyst-0");
  struct Inflight {
    int name_index;
    Clock::time_point issued;
    std::future<api::AnswerEnvelope> reply;
  };
  std::deque<Inflight> inflight;
  out.observations.reserve(order.size());
  const Clock::time_point start = Clock::now();
  auto collect = [&] {
    Inflight entry = std::move(inflight.front());
    inflight.pop_front();
    api::AnswerEnvelope reply = entry.reply.get();
    Observation obs = Observe(0, entry.name_index, std::move(reply),
                              MillisSince(entry.issued) * 1e3,
                              out.answers.get());
    obs.done_s = SecondsSince(start);
    recorder.Add(std::move(obs));
  };
  for (int name_index : order) {
    if (inflight.size() >= window) collect();
    Inflight entry;
    entry.name_index = name_index;
    entry.issued = Clock::now();
    entry.reply =
        client.CallAsync(stack->names[static_cast<size_t>(name_index)]);
    inflight.push_back(std::move(entry));
  }
  while (!inflight.empty()) collect();
  recorder.Finish(SecondsSince(start));
  PollServer(stack->in_process.get(), &out);
  return out;
}

/// read_zipf_socket's timed window: `analysts` closed-loop clients, one
/// Unix-socket connection each, one outstanding request each, zipfian
/// over the catalog, for `seconds` (or `cap` requests per analyst).
/// Popularity ranks map to catalog entries through a seed-fixed
/// permutation, so the hot queries differ from seed to seed. One
/// generator thread drives every connection: it collects the analysts'
/// replies in turn and asks an analyst's next query as soon as its reply
/// is in, so the load adds one runnable thread, not one per analyst.
/// The window is cut into `slices` equal slices; the run keeps the first
/// `keep` observations (all when negative). Returns false when a
/// connection fails.
bool DriveSocketReads(Stack* stack, uint64_t seed, int analysts,
                      double seconds, int slices, long long cap,
                      long long keep, FrontDoor* result) {
  FrontDoor& out = *result;
  out = FrontDoor{};
  std::vector<std::unique_ptr<api::SocketTransport>> transports;
  for (int a = 0; a < analysts; ++a) {
    transports.push_back(
        std::make_unique<api::SocketTransport>(stack->socket_path));
    if (!transports.back()->status().ok()) {
      std::fprintf(stderr, "pmw_perfbench: connect: %s\n",
                   transports.back()->status().ToString().c_str());
      return false;
    }
  }
  std::mt19937_64 shuffle(seed ^ 0xa5a5a5a5ULL);
  const std::vector<int> by_rank =
      Permutation(static_cast<int>(stack->names.size()), shuffle);
  const int catalog_size = static_cast<int>(stack->names.size());
  Recorder recorder(&out, slices, seconds, keep);

  struct Analyst {
    Analyst(api::Transport* transport, int index, uint64_t seed)
        : client(transport, "analyst-" + std::to_string(index)),
          engine(seed * 1000003ULL + static_cast<uint64_t>(index)) {}
    api::Client client;
    std::mt19937_64 engine;
    ZipfRanks zipf{0.99};
    long long asked = 0;
    int name_index = 0;
    Clock::time_point issued;
    std::future<api::AnswerEnvelope> reply;
  };
  std::vector<std::unique_ptr<Analyst>> group;
  for (int a = 0; a < analysts; ++a) {
    group.push_back(std::make_unique<Analyst>(
        transports[static_cast<size_t>(a)].get(), a, seed));
  }
  auto ask = [&](Analyst* analyst) {
    analyst->name_index = by_rank[static_cast<size_t>(
        analyst->zipf.Draw(catalog_size, analyst->engine))];
    ++analyst->asked;
    analyst->issued = Clock::now();
    analyst->reply = analyst->client.CallAsync(
        stack->names[static_cast<size_t>(analyst->name_index)]);
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  for (auto& analyst : group) ask(analyst.get());
  size_t open = group.size();
  while (open > 0) {
    for (int a = 0; a < analysts; ++a) {
      Analyst* analyst = group[static_cast<size_t>(a)].get();
      if (!analyst->reply.valid()) continue;
      api::AnswerEnvelope reply = analyst->reply.get();
      Observation obs = Observe(a, analyst->name_index, std::move(reply),
                                MillisSince(analyst->issued) * 1e3,
                                out.answers.get());
      obs.done_s = SecondsSince(start);
      recorder.Add(std::move(obs));
      if (analyst->asked < cap && Clock::now() < stop) {
        ask(analyst);
      } else {
        --open;
      }
    }
  }
  recorder.Finish(SecondsSince(start));
  PollServer(transports.front().get(), &out);
  for (auto& transport : transports) transport->Close();
  return true;
}

// ---------------------------------------------------------------------
// Sequential replay through core::PmwCm, timing each layer's public calls.
// ---------------------------------------------------------------------

/// Times Oracle::Solve around the harness's default non-private oracle;
/// the name is the inner oracle's, so ledger labels match the server's.
class TimedOracle : public erm::Oracle {
 public:
  Result<convex::Vec> Solve(const convex::CmQuery& query,
                            const data::Dataset& dataset,
                            const erm::OracleContext& context,
                            Rng* rng) override {
    const Clock::time_point start = Clock::now();
    Result<convex::Vec> theta = inner_.Solve(query, dataset, context, rng);
    solve_ms += MillisSince(start);
    return theta;
  }
  std::string name() const override { return inner_.name(); }

  double solve_ms = 0.0;

 private:
  erm::NonPrivateOracle inner_;
};

struct ReplayStep {
  int name_index = 0;
  /// The served reply this step must reproduce.
  const Observation* served = nullptr;
};

struct ReplayResult {
  bool match = true;
  std::string mismatch;
  std::string ledger_report;
  uint64_t digest = 0;
  long long hard_rounds = 0;
  long long steps = 0;
  double wall_ms = 0.0;
  double snapshot_ms = 0.0;
  /// Wall time of the parallel prepare phases, and the summed per-call
  /// times of their two parts.
  double prepare_ms = 0.0;
  double hypothesis_solve_ms = 0.0;
  double data_solve_ms = 0.0;
  double solve_ms = 0.0;
  double mw_ms = 0.0;
  double payoff_ms = 0.0;
  double mw_update_ms = 0.0;
  double answer_rest_ms = 0.0;
  double iters_per_solve = 0.0;
  /// Time of the timer reads themselves, as a share of the replay.
  double timer_share = 0.0;
};

/// Replays `steps` in order through a fresh PmwCm under the server's
/// mechanism options and seed. Plans are prepared exactly as
/// PmwCm::Prepare does (one snapshot per hypothesis version, then
/// ErrorOracle::Minimize on it and ErrorOracle::AnswerError on the data)
/// and reused while the version holds; answers commit one at a time
/// through AnswerPrepared, and every answer and the final ledger must
/// match the served transcript bit for bit.
ReplayResult Replay(const Stack& stack, const std::vector<ReplayStep>& steps,
                    int threads) {
  ReplayResult out;
  TimedOracle oracle;
  core::PmwCm pmw(stack.dataset.get(), &oracle, stack.options.mechanism,
                  kServerSeed);
  ThreadPool pool(std::max(1, threads));
  // Timed spans, for the cost of the replay's own timer reads.
  long long spans = 0;
  int runner_calls = 0;
  double* payoff_ms = &out.payoff_ms;
  double* mw_update_ms = &out.mw_update_ms;
  // Within one hard round the first fan-out is the dual-certificate
  // payoff sweep; the rest are MultiplicativeUpdate's per-shard phases.
  core::ShardRunner runner = [&](int num_shards,
                                 const std::function<void(int)>& fn) {
    const Clock::time_point start = Clock::now();
    std::vector<std::future<void>> pending;
    for (int s = 1; s < num_shards; ++s) {
      pending.push_back(pool.Submit([&fn, s] { fn(s); }));
    }
    fn(0);
    for (auto& future : pending) future.get();
    *(runner_calls++ == 0 ? payoff_ms : mw_update_ms) += MillisSince(start);
    ++spans;
  };
  pmw.ConfigureSharding(stack.options.serve.num_shards, runner);

  const data::HistogramSupport data_support =
      data::Histogram::FromDataset(*stack.dataset).CompactSupport();
  const convex::AutoSolver solver(stack.options.mechanism.solver);
  std::vector<core::PreparedQuery> plans(stack.names.size());
  core::HypothesisSnapshot snapshot;
  snapshot.version = -1;
  double sampling_ms = 0.0;
  long long iteration_sum = 0;
  int iteration_samples = 0;
  int sampled_version = -1;
  Digest digest;

  // Prepares, against the live version's snapshot, every query the steps
  // from `from` on ask before (and including) the next step the served
  // transcript marks as a hard round — the plans that version serves —
  // in parallel on the pool, as the serving layer's batch prepare does.
  // Each call is timed on its own thread. A plan is tagged with its
  // version, so a replay that diverges from the served transcript only
  // re-prepares; it can never answer from a wrong plan.
  auto prepare_ahead = [&](size_t from) {
    if (snapshot.version != pmw.hypothesis_version()) {
      const Clock::time_point t = Clock::now();
      snapshot = pmw.SnapshotHypothesis();
      out.snapshot_ms += MillisSince(t);
      ++spans;
    }
    std::vector<int> wanted;
    for (size_t j = from; j < steps.size(); ++j) {
      const int index = steps[j].name_index;
      if (plans[static_cast<size_t>(index)].hypothesis_version !=
              snapshot.version &&
          std::find(wanted.begin(), wanted.end(), index) == wanted.end()) {
        wanted.push_back(index);
      }
      if (steps[j].served->meta.hard_round) break;
    }
    struct Timing {
      double hypothesis_ms = 0.0;
      double data_ms = 0.0;
    };
    const Clock::time_point start = Clock::now();
    std::vector<std::future<Timing>> pending;
    for (int index : wanted) {
      pending.push_back(pool.Submit([&, index] {
        const convex::CmQuery& query =
            *stack.catalog->Find(stack.names[static_cast<size_t>(index)]);
        core::PreparedQuery& plan = plans[static_cast<size_t>(index)];
        Timing timing;
        Clock::time_point t = Clock::now();
        plan.theta_hat = pmw.error_oracle().Minimize(query, snapshot.support);
        timing.hypothesis_ms = MillisSince(t);
        t = Clock::now();
        plan.query_value = pmw.error_oracle().AnswerError(query, data_support,
                                                          plan.theta_hat);
        timing.data_ms = MillisSince(t);
        plan.hypothesis_version = snapshot.version;
        return timing;
      }));
    }
    for (auto& future : pending) {
      const Timing timing = future.get();
      out.hypothesis_solve_ms += timing.hypothesis_ms;
      out.data_solve_ms += timing.data_ms;
    }
    out.prepare_ms += MillisSince(start);
    spans += 1 + 2 * static_cast<long long>(wanted.size());
    if (!wanted.empty() && sampled_version != snapshot.version) {
      // The inner solver's iteration count, one sample per hypothesis
      // version: a second solve of the version's first prepared objective,
      // whose time is left out of the replay.
      sampled_version = snapshot.version;
      const Clock::time_point t = Clock::now();
      const convex::CmQuery& query =
          *stack.catalog->Find(stack.names[static_cast<size_t>(wanted[0])]);
      convex::SupportObjective objective(query.loss, stack.universe.get(),
                                         &snapshot.support);
      iteration_sum += solver.Minimize(objective, *query.domain).iterations;
      ++iteration_samples;
      sampling_ms += MillisSince(t);
    }
  };

  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < steps.size(); ++i) {
    const ReplayStep& step = steps[i];
    const std::string& name = stack.names[static_cast<size_t>(step.name_index)];
    const convex::CmQuery& query = *stack.catalog->Find(name);
    const core::PreparedQuery& plan =
        plans[static_cast<size_t>(step.name_index)];
    if (plan.hypothesis_version != pmw.hypothesis_version()) {
      prepare_ahead(i);
    }
    runner_calls = 0;
    const double solve_before = oracle.solve_ms;
    const Clock::time_point t = Clock::now();
    Result<core::PmwAnswer> answer =
        pmw.AnswerPrepared(query, plan, &snapshot);
    const double answer_ms = MillisSince(t);
    const double mw_ms =
        static_cast<double>(pmw.last_answer_timing().mw_us) / 1e3;
    out.mw_ms += mw_ms;
    out.answer_rest_ms +=
        std::max(0.0, answer_ms - (oracle.solve_ms - solve_before) - mw_ms);
    ++out.steps;
    spans += 1 + (oracle.solve_ms != solve_before ? 1 : 0);

    const Observation& served = *step.served;
    digest.Str(name);
    digest.U64(answer.ok() ? 1 : 0);
    if (answer.ok()) {
      digest.Doubles(answer.value().theta);
      digest.U64(answer.value().was_update ? 1 : 0);
      if (answer.value().was_update) ++out.hard_rounds;
    }
    if (out.match) {
      const bool same =
          answer.ok() == (served.error == api::ErrorCode::kOk) &&
          (!answer.ok() ||
           (answer.value().theta == *served.answer &&
            answer.value().was_update == served.meta.hard_round));
      if (!same) {
        out.match = false;
        out.mismatch = "replay step " + std::to_string(out.steps - 1) +
                       " (" + name + ") differs from the served reply";
      }
    }
  }
  out.wall_ms = MillisSince(start) - sampling_ms;
  out.solve_ms = oracle.solve_ms;
  out.iters_per_solve =
      iteration_samples > 0
          ? static_cast<double>(iteration_sum) / iteration_samples
          : 0.0;
  out.ledger_report = pmw.ledger().Report();
  digest.Str(out.ledger_report);
  out.digest = digest.value();

  // The cost of one timer read, times the reads the replay made.
  const int probes = 10000;
  const Clock::time_point probe_start = Clock::now();
  volatile int64_t sink = 0;
  for (int i = 0; i < probes; ++i) {
    sink = sink + Clock::now().time_since_epoch().count();
  }
  const double per_read_ms = MillisSince(probe_start) / probes;
  out.timer_share = out.wall_ms > 0.0
                        ? per_read_ms * 2.0 * static_cast<double>(spans) /
                              out.wall_ms
                        : 0.0;
  return out;
}

/// The served transcript's digest, computed exactly like the replay's.
uint64_t ServedDigest(const Stack& stack,
                      const std::vector<ReplayStep>& steps,
                      const std::string& ledger_report) {
  Digest digest;
  for (const ReplayStep& step : steps) {
    const Observation& served = *step.served;
    digest.Str(stack.names[static_cast<size_t>(step.name_index)]);
    const bool ok = served.error == api::ErrorCode::kOk;
    digest.U64(ok ? 1 : 0);
    if (ok) {
      digest.Doubles(*served.answer);
      digest.U64(served.meta.hard_round ? 1 : 0);
    }
  }
  digest.Str(ledger_report);
  return digest.value();
}

// ---------------------------------------------------------------------
// Accuracy: excess empirical risk of every answer, after the window.
// ---------------------------------------------------------------------

/// Share of served answers whose excess empirical risk on the dataset
/// (Definition 2.2, exact inner solver) is at most alpha. Each distinct
/// answer is scored once and counts for every reply that carried it.
double AccurateFraction(const Stack& stack, const AnswerTable& answers,
                        int threads) {
  long long answered = 0;
  for (const auto& [name_index, distinct] : answers.by_name()) {
    for (const AnswerTable::Entry& entry : distinct) answered += entry.replies;
  }
  if (answered == 0) return 0.0;
  const data::HistogramSupport support =
      data::Histogram::FromDataset(*stack.dataset).CompactSupport();
  const core::ErrorOracle exact(stack.universe.get());
  const double alpha = stack.options.mechanism.alpha;
  ThreadPool pool(std::max(1, threads));
  std::vector<std::future<long long>> accurate;
  for (const auto& [name_index, distinct] : answers.by_name()) {
    const convex::CmQuery* query =
        stack.catalog->Find(stack.names[static_cast<size_t>(name_index)]);
    const auto* entries = &distinct;
    accurate.push_back(pool.Submit([&exact, &support, query, entries,
                                    alpha] {
      std::vector<double> losses;
      double minimum = exact.MinimumValue(*query, support);
      for (const AnswerTable::Entry& entry : *entries) {
        losses.push_back(exact.Loss(*query, support, entry.answer));
        minimum = std::min(minimum, losses.back());
      }
      long long count = 0;
      for (size_t i = 0; i < entries->size(); ++i) {
        if (losses[i] - minimum <= alpha) count += (*entries)[i].replies;
      }
      return count;
    }));
  }
  long long total = 0;
  for (auto& future : accurate) total += future.get();
  return static_cast<double>(total) / static_cast<double>(answered);
}

// ---------------------------------------------------------------------
// The gate and the report.
// ---------------------------------------------------------------------

struct Gate {
  std::vector<std::string> failures;
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Budget checks from the server's own stats poll: hard rounds within T,
/// and the basic-composition epsilon equal to the schedule's charge for
/// exactly that many oracle calls (so within the worst case eps/2 + T*eps0).
void CheckBudget(const Stack& stack, const FrontDoor& run, long long hard,
                 Gate* gate) {
  const core::PmwSchedule schedule = core::PmwSchedule::Compute(
      stack.options.mechanism, stack.universe->LogSize());
  gate->Check(hard <= schedule.T, "hard rounds " + std::to_string(hard) +
                                      " exceed T " +
                                      std::to_string(schedule.T));
  gate->Check(run.hard_rounds_remaining == schedule.T - hard,
              "stats poll reports " +
                  std::to_string(run.hard_rounds_remaining) +
                  " hard rounds remaining");
  const double expected =
      schedule.sv_budget.epsilon + hard * schedule.oracle_budget.epsilon;
  const double cap =
      schedule.sv_budget.epsilon + schedule.T * schedule.oracle_budget.epsilon;
  gate->Check(std::abs(run.epsilon_spent - expected) <= 1e-9 * cap,
              "epsilon spent " + std::to_string(run.epsilon_spent) +
                  " differs from the schedule's " + std::to_string(expected));
  gate->Check(run.epsilon_spent <= cap * (1.0 + 1e-12),
              "epsilon spent exceeds the budget");
}

/// Latency/serving metrics every workload reports. Each end-to-end
/// figure is the median of its per-slice values, so a scheduling hiccup
/// moves only the slices it hits; the per-layer figures come from the
/// observations the run kept.
void ReportServing(const FrontDoor& run, JsonObject* metrics,
                   long long* failed) {
  auto median_over_slices = [&](const std::function<double(const SliceStats&)>& f) {
    std::vector<double> values;
    for (const SliceStats& slice : run.slices) values.push_back(f(slice));
    return Pct(values, 0.5);
  };
  std::vector<double> hard_ms, queue_us, serve_us, prepare_ms, transport_us;
  long long kept_ok = 0, hits = 0;
  for (const Observation& obs : run.observations) {
    if (obs.error != api::ErrorCode::kOk) continue;
    ++kept_ok;
    if (obs.meta.hard_round) hard_ms.push_back(obs.latency_us / 1e3);
    queue_us.push_back(static_cast<double>(obs.meta.queue_wait_us));
    serve_us.push_back(static_cast<double>(obs.meta.serve_us));
    prepare_ms.push_back(static_cast<double>(obs.meta.prepare_us) / 1e3);
    transport_us.push_back(std::max(
        0.0, obs.latency_us - static_cast<double>(obs.meta.queue_wait_us) -
                 static_cast<double>(obs.meta.serve_us)));
    if (obs.meta.cache_hit) ++hits;
  }
  *failed = run.issued - run.ok;
  metrics->Num("goodput_qps", median_over_slices([](const SliceStats& slice) {
             return slice.span_s > 0.0 ? slice.ok / slice.span_s : 0.0;
           }))
      .Num("latency_p50_ms", median_over_slices([](const SliceStats& slice) {
             return slice.p50_ms;
           }))
      .Num("latency_p90_ms", median_over_slices([](const SliceStats& slice) {
             return slice.p90_ms;
           }))
      .Num("latency_p99_ms", median_over_slices([](const SliceStats& slice) {
             return slice.p99_ms;
           }))
      .Num("soft_latency_p50_ms",
           median_over_slices([](const SliceStats& slice) {
             return slice.soft_p50_ms;
           }))
      .Num("hard_latency_p50_ms", Pct(hard_ms, 0.50))
      .Num("epsilon_spent", run.epsilon_spent)
      .Num("frontend.queue_wait_us_p50", Pct(queue_us, 0.50))
      .Num("frontend.queue_wait_us_p99", Pct(queue_us, 0.99))
      .Num("frontend.plan_hit_rate",
           kept_ok > 0 ? static_cast<double>(hits) / static_cast<double>(kept_ok)
                       : 0.0)
      .Num("serve.serve_us_p50", Pct(serve_us, 0.50))
      .Num("serve.prepare_ms_p50", Pct(prepare_ms, 0.50))
      .Num("api.transport_us_p50", Pct(transport_us, 0.50));
}

/// Times the codec's public Encode/Decode calls on the run's own frames:
/// each request re-encoded from what the client sent, each reply
/// re-encoded from what it received. Returns mean us and bytes per
/// request (request frame + reply frame).
std::pair<double, double> TimeCodec(const Stack& stack,
                                    const std::vector<Observation>& observed) {
  if (observed.empty()) return {0.0, 0.0};
  std::vector<api::QueryRequest> requests;
  std::vector<api::AnswerEnvelope> replies;
  const size_t limit =
      std::min<size_t>(observed.size(), static_cast<size_t>(kCodecSample));
  for (size_t i = 0; i < limit; ++i) {
    const Observation& obs = observed[i];
    api::QueryRequest request;
    request.analyst_id = "analyst-" + std::to_string(obs.analyst);
    request.request_id = obs.request_id;
    request.query_name = stack.names[static_cast<size_t>(obs.name_index)];
    requests.push_back(std::move(request));
    api::AnswerEnvelope reply;
    reply.request_id = obs.request_id;
    reply.error = obs.error;
    reply.answer = *obs.answer;
    reply.meta = obs.meta;
    replies.push_back(std::move(reply));
  }
  std::string frame;
  double bytes = 0.0;
  size_t decoded = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    frame.clear();
    api::EncodeRequest(requests[i], &frame);
    bytes += static_cast<double>(frame.size());
    decoded += api::DecodeRequest(frame).ok() ? 1 : 0;
    frame.clear();
    api::EncodeAnswer(replies[i], &frame);
    bytes += static_cast<double>(frame.size());
    decoded += api::DecodeAnswer(frame).ok() ? 1 : 0;
  }
  const double us = MillisSince(start) * 1e3;
  if (decoded != 2 * requests.size()) return {-1.0, -1.0};
  const double n = static_cast<double>(requests.size());
  return {us / n, bytes / n};
}

std::string Stamp(const Args& args) {
  const char* simd_env = std::getenv("PMW_SIMD");
  JsonObject stamp;
  stamp.Int("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .Bool("simd_available", simd::Available())
      .Bool("simd_enabled", simd::Enabled())
      .Str("pmw_simd_env", simd_env != nullptr ? simd_env : "")
      .Str("build_type", PMW_BENCH_BUILD_TYPE)
      .Str("compiler", PMW_BENCH_COMPILER)
      .Int("seed", static_cast<long long>(args.seed))
      .Int("serve_threads", ServeThreads());
  return stamp.Dump();
}

/// The replay's per-layer totals (ms over the whole replay).
void ReportReplay(const ReplayResult& replay, JsonObject* metrics) {
  const double attributed = replay.snapshot_ms + replay.prepare_ms +
                            replay.solve_ms + replay.mw_ms;
  metrics->Num("erm.solve_ms", replay.solve_ms)
      .Num("losses.payoff_ms", replay.payoff_ms)
      .Num("core.mw_ms", replay.mw_ms)
      .Num("core.mw_update_ms", replay.mw_update_ms)
      .Num("core.prepare_ms", replay.prepare_ms)
      .Num("core.hypothesis_solve_ms", replay.hypothesis_solve_ms)
      .Num("core.data_solve_ms", replay.data_solve_ms)
      .Num("core.snapshot_ms", replay.snapshot_ms)
      .Num("core.answer_rest_ms", replay.answer_rest_ms)
      .Num("convex.iters_per_solve", replay.iters_per_solve)
      .Int("dp.hard_rounds", replay.hard_rounds)
      .Num("dp.top_rate", replay.steps > 0
                              ? static_cast<double>(replay.hard_rounds) /
                                    static_cast<double>(replay.steps)
                              : 0.0)
      .Num("replay.wall_ms", replay.wall_ms)
      .Num("replay.attributed_frac",
           replay.wall_ms > 0.0 ? attributed / replay.wall_ms : 0.0);
}

/// Prints the run's one json line: verdict, counts, digest, metrics,
/// stamp, and the registry scrape for run.py to read front-door numbers
/// from.
int Emit(const Args& args, const Gate& gate, const FrontDoor& run,
         long long failed, uint64_t digest, const JsonObject& metrics) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
  std::string failures = "[";
  for (size_t i = 0; i < gate.failures.size(); ++i) {
    failures += (i > 0 ? ", " : "") + JsonObject::Quote(gate.failures[i]);
  }
  JsonObject out;
  out.Str("workload", args.workload)
      .Bool("correct", gate.failures.empty())
      .Int("attempted", run.issued)
      .Int("failed", failed)
      .Str("transcript_digest", hex)
      .Raw("gate_failures", failures + "]")
      .Int("hard_rounds", run.hard_rounds)
      .Raw("metrics", metrics.Dump())
      .Raw("stamp", Stamp(args))
      .Raw("scrape", run.scrape_json.empty() ? "{}" : run.scrape_json);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

/// Builds args.setups stacks one after another (one alive at a time) and
/// keeps the last; setup_s and its parts are the medians over all of them.
std::unique_ptr<Stack> TimedSetups(const Args& args, const Shape& shape,
                                   JsonObject* metrics) {
  std::vector<double> totals, data_s, endpoint_s, warmup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < args.setups; ++i) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    stack = BuildStack(args, shape, /*record_arrival_log=*/false, i);
    if (stack == nullptr) return nullptr;
    totals.push_back(SecondsSince(start));
    data_s.push_back(stack->data_s);
    endpoint_s.push_back(stack->endpoint_s);
    warmup_s.push_back(stack->warmup_s);
  }
  metrics->Num("setup_s", Pct(totals, 0.5))
      .Num("setup.data_s", Pct(data_s, 0.5))
      .Num("setup.endpoint_s", Pct(endpoint_s, 0.5))
      .Num("setup.warmup_s", Pct(warmup_s, 0.5));
  return stack;
}

int RunUpdateMix(const Args& args) {
  Shape shape;
  shape.logistic = true;
  shape.shards = 4;
  const long long requests = std::max(1LL, args.requests);
  // Every request may fire: T and k both cover the whole transcript.
  shape.override_updates = static_cast<int>(requests);
  shape.max_queries = requests;
  shape.planned_requests = requests;
  shape.planned_hard_rounds = requests;

  JsonObject metrics;
  Gate gate;
  std::unique_ptr<Stack> stack = TimedSetups(args, shape, &metrics);
  if (stack == nullptr) return 2;

  const std::vector<int> order =
      UpdateMixOrder(args.seed, static_cast<int>(stack->names.size()),
                     requests);
  // Three in flight: the dispatcher serves them as one batch, so every
  // latency is a batch time and a percentile is an order statistic of
  // batch times. With 4 in flight latency_p90_ms moved about 12% from
  // seed to seed, with 2 latency_p50_ms moved about 7%; with 3 both
  // stayed near 5%.
  FrontDoor run = DriveUpdateMix(stack.get(), order, /*window=*/3);
  metrics.Num("peak_rss_mb", PeakRssMb());
  long long failed = 0;
  ReportServing(run, &metrics, &failed);
  stack->endpoint->Shutdown();
  run.ledger_report = stack->endpoint->service().mechanism().ledger().Report();

  // One generator thread submits in order and the dispatcher commits in
  // arrival order, so the transcript is the order itself.
  std::vector<ReplayStep> steps;
  for (const Observation& obs : run.observations) {
    steps.push_back({obs.name_index, &obs});
  }
  const uint64_t served_digest =
      ServedDigest(*stack, steps, run.ledger_report);
  gate.Check(failed == 0, std::to_string(failed) + " replies were not kOk");
  const ReplayResult replay = Replay(*stack, steps, ServeThreads());
  gate.Check(replay.match, replay.mismatch);
  gate.Check(replay.ledger_report == run.ledger_report,
             "replayed privacy ledger differs from the served one");
  gate.Check(replay.digest == served_digest,
             "transcript digest differs from the replay's");
  ReportReplay(replay, &metrics);
  metrics.Num("obs.trace_overhead_frac", replay.timer_share);
  CheckBudget(*stack, run, run.hard_rounds, &gate);

  metrics.Num("accurate_frac",
              AccurateFraction(*stack, *run.answers, ServeThreads()));
  const auto [codec_us, frame_bytes] = TimeCodec(*stack, run.observations);
  gate.Check(codec_us >= 0.0, "the codec failed to decode a run frame");
  metrics.Num("api.codec_us", codec_us).Num("api.frame_bytes", frame_bytes);

  return Emit(args, gate, run, failed, served_digest, metrics);
}

/// read_zipf_socket's reference: with no hard round every answer is the
/// hypothesis minimizer of the uniform start, so a fresh PmwCm's Prepare
/// gives each query's expected bits.
std::vector<std::vector<double>> ReferenceAnswers(const Stack& stack,
                                                  std::string* ledger) {
  erm::NonPrivateOracle oracle;
  core::PmwCm pmw(stack.dataset.get(), &oracle, stack.options.mechanism,
                  kServerSeed);
  std::vector<std::vector<double>> answers;
  for (const std::string& name : stack.names) {
    answers.push_back(pmw.Prepare(*stack.catalog->Find(name)).theta_hat);
  }
  *ledger = pmw.ledger().Report();
  return answers;
}

/// The warm-up pass's replies as observations (analyst -1).
std::vector<Observation> WarmupObservations(const Stack& stack,
                                            AnswerTable* answers) {
  std::vector<Observation> out;
  for (size_t i = 0; i < stack.warmup_replies.size(); ++i) {
    out.push_back(Observe(-1, static_cast<int>(i), stack.warmup_replies[i],
                          0.0, answers));
  }
  return out;
}

int RunSocketReads(const Args& args) {
  constexpr int kAnalysts = 4;
  // Far above what four closed-loop analysts reach: the run is timed,
  // this only bounds k.
  constexpr double kMaxQps = 50000.0;
  // End-to-end figures are medians over the window's one-second slices.
  constexpr double kSliceSeconds = 1.0;
  Shape shape;
  shape.socket = true;
  shape.shards = 1;
  shape.override_updates = 32;
  const long long cap_per_analyst =
      static_cast<long long>(std::ceil(args.seconds * kMaxQps / kAnalysts));
  // The warm-up pass asks every catalog query once before the window.
  shape.max_queries = args.catalog + kAnalysts * cap_per_analyst;
  shape.planned_requests = shape.max_queries;
  // The read path plans no hard round; the gate fails the run if one fires.
  shape.planned_hard_rounds = 0;

  JsonObject metrics;
  Gate gate;
  std::unique_ptr<Stack> stack = TimedSetups(args, shape, &metrics);
  if (stack == nullptr) return 2;
  const double window_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const int slices =
      std::max(1, static_cast<int>(std::lround(window_s / kSliceSeconds)));
  // The traced replay needs every reply; otherwise only the codec's
  // sample is kept.
  const long long keep = args.trace ? -1 : kCodecSample;
  FrontDoor run;
  if (!DriveSocketReads(stack.get(), args.seed, kAnalysts, window_s, slices,
                        cap_per_analyst, keep, &run)) {
    return 2;
  }
  metrics.Num("peak_rss_mb", PeakRssMb());
  AnswerTable warmup_answers;
  std::vector<Observation> warmup =
      WarmupObservations(*stack, &warmup_answers);

  if (args.trace) {
    // The traced half: a second stack that records the arrival log, so
    // the transcript can be replayed in commit order. Its goodput against
    // the untraced half's is the tracing overhead.
    const double untraced_qps =
        run.elapsed_s > 0.0 ? run.issued / run.elapsed_s : 0.0;
    stack.reset();
    stack = BuildStack(args, shape, /*record_arrival_log=*/true, args.setups);
    if (stack == nullptr) return 2;
    if (!DriveSocketReads(stack.get(), args.seed, kAnalysts, window_s, slices,
                          cap_per_analyst, keep, &run)) {
      return 2;
    }
    warmup = WarmupObservations(*stack, &warmup_answers);
    const double traced_qps =
        run.elapsed_s > 0.0 ? run.issued / run.elapsed_s : 0.0;
    metrics.Num("obs.trace_overhead_frac",
                untraced_qps > 0.0 ? 1.0 - traced_qps / untraced_qps : 0.0);
  }
  long long failed = 0;
  ReportServing(run, &metrics, &failed);
  stack->socket_server->Shutdown();
  stack->endpoint->Shutdown();
  run.ledger_report = stack->endpoint->service().mechanism().ledger().Report();
  gate.Check(failed == 0, std::to_string(failed) + " replies were not kOk");

  long long served_hard = run.hard_rounds;
  for (const Observation& obs : warmup) {
    if (obs.meta.hard_round) ++served_hard;
  }
  CheckBudget(*stack, run, served_hard, &gate);

  uint64_t digest = 0;
  if (args.trace) {
    // Replay the arrival log (warm-up included) through sequential PmwCm.
    std::map<std::pair<int, uint64_t>, const Observation*> by_key;
    for (const auto* list : {&warmup, &run.observations}) {
      for (const Observation& obs : *list) {
        by_key[{obs.analyst, obs.request_id}] = &obs;
      }
    }
    std::vector<ReplayStep> steps;
    bool complete = true;
    for (const auto& record : stack->endpoint->ArrivalLog()) {
      const int analyst =
          record.analyst_id == "warmup"
              ? -1
              : std::atoi(record.analyst_id.c_str() + std::strlen("analyst-"));
      const auto it = by_key.find({analyst, record.client_request_id});
      if (it == by_key.end()) {
        complete = false;
        break;
      }
      steps.push_back({it->second->name_index, it->second});
    }
    gate.Check(complete && steps.size() == by_key.size(),
               "the arrival log does not cover every served reply");
    const ReplayResult replay = Replay(*stack, steps, ServeThreads());
    gate.Check(replay.match, replay.mismatch);
    gate.Check(replay.ledger_report == run.ledger_report,
               "replayed privacy ledger differs from the served one");
    digest = ServedDigest(*stack, steps, run.ledger_report);
    gate.Check(replay.digest == digest,
               "transcript digest differs from the replay's");
    ReportReplay(replay, &metrics);
  } else {
    // Untraced: no arrival log, so check the outputs that do not depend
    // on commit order — with no hard round every answer must equal its
    // query's minimizer on the uniform start, bit for bit.
    std::string reference_ledger;
    const std::vector<std::vector<double>> reference =
        ReferenceAnswers(*stack, &reference_ledger);
    gate.Check(served_hard == 0,
               std::to_string(served_hard) +
                   " hard rounds fired on the read path");
    long long wrong = 0;
    for (const Observation& obs : warmup) {
      if (obs.error == api::ErrorCode::kOk &&
          *obs.answer != reference[static_cast<size_t>(obs.name_index)]) {
        ++wrong;
      }
    }
    // Every window reply's answer is in the table: a wrong one would be
    // a distinct entry.
    for (const auto& [name_index, distinct] : run.answers->by_name()) {
      for (const AnswerTable::Entry& entry : distinct) {
        if (entry.answer != reference[static_cast<size_t>(name_index)]) {
          wrong += entry.replies;
        }
      }
    }
    gate.Check(wrong == 0, std::to_string(wrong) +
                               " answers differ from sequential PmwCm");
    gate.Check(reference_ledger == run.ledger_report,
               "privacy ledger differs from sequential PmwCm");
    Digest transcript;
    for (size_t i = 0; i < reference.size(); ++i) {
      transcript.Str(stack->names[i]);
      transcript.Doubles(reference[i]);
    }
    transcript.Str(run.ledger_report);
    digest = transcript.value();
  }

  metrics.Num("accurate_frac",
              AccurateFraction(*stack, *run.answers, ServeThreads()));
  const auto [codec_us, frame_bytes] = TimeCodec(*stack, run.observations);
  gate.Check(codec_us >= 0.0, "the codec failed to decode a run frame");
  metrics.Num("api.codec_us", codec_us).Num("api.frame_bytes", frame_bytes);
  return Emit(args, gate, run, failed, digest, metrics);
}

}  // namespace
}  // namespace perfbench
}  // namespace pmw

int main(int argc, char** argv) {
  using namespace pmw::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pmw_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --dim <d> --records <n> "
                 "--catalog <c> --alpha <a> [--solver-iters <i>] "
                 "[--requests <r>] [--setups <k>] [--run-dir <dir>]\n");
    return 2;
  }
  if (args.workload == "update_mix_2p20") return RunUpdateMix(args);
  if (args.workload == "read_zipf_socket") return RunSocketReads(args);
  std::fprintf(stderr, "pmw_perfbench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
