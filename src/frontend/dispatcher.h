// INTERNAL — the asynchronous multi-analyst engine behind the public
// pmw::api surface. Since PR 4 the one public serving surface is
// api::Client / api::ServerEndpoint (src/api/); examples and external
// callers must not include this header or call Submit directly (CI's
// examples-smoke job enforces the include rule). Tests and benchmarks
// may, to pin the engine's behavior and measure the api layer's overhead
// against it.
//
//   analysts --Submit--> MpscQueue --PopBatch--> Dispatcher thread
//        --AnswerBatch--> serve::PmwService --> futures resolve
//
// Many analyst threads call Submit concurrently; each admitted request
// enters a bounded MPSC queue (common/mpsc_queue.h) and comes back as a
// std::future. One dispatcher thread drains the queue into
// dynamically-sized batches — flushing when max_batch requests have
// coalesced or the max_wait deadline passes, whichever is first — and
// feeds them to PmwService::AnswerBatch, which preserves arrival order
// through its single-writer commit loop. The composition keeps the PR 2
// guarantee end to end: the transcript (answers + privacy ledger) is
// bit-identical to feeding the same arrival-ordered sequence through
// sequential PmwCm (tests/frontend_test.cc replays the recorded arrival
// log to prove it).
//
// Admission control happens in Submit, before the queue: a
// QuotaManager rejection resolves the future immediately with a typed
// error and costs zero privacy budget. Cross-batch plan reuse is the
// service's business (serve::PlanCache, attached by whoever owns the
// service — api::ServerEndpoint in production).

#ifndef PMWCM_FRONTEND_DISPATCHER_H_
#define PMWCM_FRONTEND_DISPATCHER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "common/result.h"
#include "common/stats.h"
#include "convex/cm_query.h"
#include "frontend/quota_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/pmw_service.h"

namespace pmw {
namespace frontend {

struct DispatcherOptions {
  /// Bound on queued (admitted, not yet served) requests; full-queue
  /// submits block — backpressure, never unbounded growth.
  size_t queue_capacity = 1024;
  /// Flush a batch at this many requests...
  size_t max_batch = 64;
  /// ...or this long after the first queued request, whichever is first.
  std::chrono::microseconds max_wait{500};
  /// Record every committed request in commit order (ArrivalLog); the
  /// log replays through sequential PmwCm.
  bool record_arrival_log = false;
  /// Span sink (not owned; null disables tracing). The dispatcher
  /// assembles each served request's span tree — queue wait, batch
  /// prepare, commit with its solve/MW halves, per-shard MW — and
  /// publishes it here AFTER resolving the request's promise, so
  /// tracing sits strictly outside the answer path.
  obs::TraceRecorder* trace_recorder = nullptr;
};

/// Front-door counters, as a value rebuilt from the pmw_frontend_*
/// instruments in the service's registry by Dispatcher::stats().
struct DispatcherStats {
  long long submitted = 0;
  long long admitted = 0;
  /// Rejected by the QuotaManager before entering the queue.
  long long quota_rejected = 0;
  /// Rejected because the dispatcher had already shut down.
  long long shutdown_rejected = 0;
  /// Admitted requests whose deadline passed while queued; resolved with
  /// kDeadlineExpired at zero privacy cost (quota slot refunded, never
  /// served, never logged as an arrival).
  long long deadline_expired = 0;
  long long batches = 0;
  /// Requests per dispatched batch (how well the deadline coalesces).
  RunningStats batch_fill;
  /// Server-side latency split, per served request, in microseconds:
  /// time spent in the MPSC queue before the request's batch formed, and
  /// wall time of the serving call that answered it (batch-attributed —
  /// every request in a batch shares its batch's serve time). The same
  /// numbers ride back to clients per-answer as ServingMeta
  /// queue_wait_us/serve_us; these are the aggregate moments the stats
  /// RPC surfaces.
  RunningStats queue_wait_us;
  RunningStats serve_us;

  /// One row per dispatcher for comparative tables, same convention as
  /// ServeStats. api::ServerEndpoint::Report() extends the row with
  /// codec/transport counters.
  static std::vector<std::string> TableHeader();
  std::vector<std::string> TableRow() const;
  /// TableHeader + this dispatcher's TableRow via common/table_printer.
  std::string ToString() const;
};

/// One committed request, as the arrival log records it: who asked,
/// the id the client correlates the reply by, and the catalog name of
/// the query — what replaying the transcript needs.
struct ArrivalRecord {
  std::string analyst_id;
  uint64_t client_request_id = 0;
  std::string query_name;
};

/// What a Submit future resolves with: the released theta (or typed
/// error) plus the serving metadata the api layer forwards to clients.
struct Served {
  Result<convex::Vec> answer;
  /// Meaningful only when the request reached the service (default
  /// elsewhere, e.g. quota/deadline/shutdown rejections).
  serve::QueryOutcome outcome;
  /// Latency split (see DispatcherStats): queue wait until the request's
  /// batch formed, and the batch's serving wall time. Zero for requests
  /// that never reached the queue (quota/shutdown rejections); expired
  /// requests carry their queue wait with serve_us = 0.
  uint64_t queue_wait_us = 0;
  uint64_t serve_us = 0;

  Served(Result<convex::Vec> a) : answer(std::move(a)) {}  // NOLINT
  Served(Result<convex::Vec> a, serve::QueryOutcome o)
      : answer(std::move(a)), outcome(o) {}
};

class Dispatcher {
 public:
  /// `service` must outlive the dispatcher and must not be driven by
  /// anyone else while the dispatcher runs (it is the single writer).
  /// `quota` is optional (null disables admission control) and not
  /// owned. The dispatcher thread starts immediately.
  Dispatcher(serve::PmwService* service, QuotaManager* quota,
             const DispatcherOptions& options = {});

  /// Shutdown().
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Submits one query on behalf of `analyst_id`. Thread-safe; blocks
  /// only when the queue is full. The future resolves with the released
  /// theta or a typed error (quota rejection, deadline expiry, mechanism
  /// kHalted / kResourceExhausted, or shutdown). `client_request_id` and
  /// `query_name` are only recorded: they are what ArrivalLog holds for
  /// the request once it commits. A non-default `deadline` bounds how
  /// long the request may wait in the queue: if it expires before the
  /// dispatcher hands the request to the service, the future resolves
  /// with kDeadlineExpired, the quota slot is refunded, and the mechanism
  /// never sees the query (zero privacy cost).
  std::future<Served> Submit(
      const std::string& analyst_id, const convex::CmQuery& query,
      uint64_t client_request_id = 0, std::string query_name = {},
      std::chrono::steady_clock::time_point deadline = {});

  /// Stops accepting work, serves everything already queued, and joins
  /// the dispatcher thread. Idempotent and safe to call from any thread.
  void Shutdown();

  /// Committed requests in commit (arrival) order — the mechanism's own
  /// kHalted / kResourceExhausted answers included; quota and shutdown
  /// rejections and deadline expiries, which never reach it, excluded.
  /// Complete only after Shutdown; empty unless
  /// options.record_arrival_log.
  std::vector<ArrivalRecord> ArrivalLog() const;

  /// The front-door counters, rebuilt from registry reads: safe from any
  /// thread while the dispatcher keeps serving. Counts cover every
  /// dispatcher that has served through this service's registry.
  DispatcherStats stats() const;
  serve::PmwService& service() { return *service_; }

 private:
  struct Request {
    /// Dispatcher-unique; the trace id of the request's span tree.
    uint64_t id = 0;
    std::string analyst_id;
    uint64_t client_request_id = 0;
    std::string query_name;
    convex::CmQuery query;
    /// steady_clock epoch (the default) means no deadline.
    std::chrono::steady_clock::time_point deadline{};
    /// When the request passed admission and entered the queue; the
    /// dispatch loop turns it into the queue-wait half of the latency
    /// split.
    std::chrono::steady_clock::time_point enqueued_at{};
    std::promise<Served> promise;
  };

  void DispatchLoop();

  /// Registry handles (instruments live in the service's registry, so
  /// one scrape covers both layers); resolved once at construction.
  struct Instruments {
    obs::Counter* submitted = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* quota_rejected = nullptr;
    obs::Counter* shutdown_rejected = nullptr;
    obs::Counter* deadline_expired = nullptr;
    obs::Counter* batches = nullptr;
    obs::Histogram* batch_fill = nullptr;
    obs::Histogram* queue_wait_us = nullptr;
    obs::Histogram* serve_us = nullptr;
  };

  serve::PmwService* service_;
  QuotaManager* quota_;
  const DispatcherOptions options_;
  Instruments m_;
  MpscQueue<Request> queue_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex shutdown_mutex_;  // serializes Shutdown callers
  mutable std::mutex arrival_log_mutex_;
  std::vector<ArrivalRecord> arrival_log_;
  std::thread dispatcher_;  // last member: starts in the constructor
};

}  // namespace frontend
}  // namespace pmw

#endif  // PMWCM_FRONTEND_DISPATCHER_H_
