// Scenario specs: a workload as a checked-in, seeded artifact.
//
// A ScenarioSpec fully determines a workload — the server shape (threads,
// shards, quotas), the mechanism knobs, the key-popularity model
// (uniform / zipfian / hot-set churn), and the arrival process
// (closed-loop analysts vs an open-loop Poisson schedule) — so
// BuildTrace(spec, names) is a pure function of the spec and the catalog
// names. StandardScenarios() is the canonical matrix the scenario runner
// and the nightly CI job drive; per-scenario SLOs make a run self-judging.
//
// This header is api-free on purpose: the trace/generator layer (and its
// tests) depend only on the spec, while workload/runner.h owns everything
// that touches api::Client / api::ServerEndpoint.

#ifndef PMWCM_BENCH_WORKLOAD_SCENARIO_H_
#define PMWCM_BENCH_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pmw {
namespace workload {

/// Client-observed service-level objectives a scenario is judged
/// against. Zero (or negative, for the hit-rate bound) disables a check.
struct Slo {
  double max_p50_ms = 0.0;
  double max_p99_ms = 0.0;
  /// Lower bound on goodput (successful answers per second).
  double min_goodput_qps = 0.0;
  /// Lower bound on the cross-batch plan-cache hit rate observed in
  /// reply metadata; < 0 disables.
  double min_cache_hit_rate = -1.0;
  /// Quota / deadline / halt rejections are part of the scenario's
  /// design (pressure mixes) rather than failures.
  bool allow_rejections = false;
};

struct ScenarioSpec {
  std::string name;

  // -- Server shape --------------------------------------------------
  int dim = 6;
  int records = 200000;
  int catalog_queries = 96;
  /// Serve-pool threads; 0 picks min(4, hardware cores).
  int serve_threads = 0;
  int shards = 1;
  size_t max_batch = 64;
  uint64_t max_wait_us = 200;
  /// Per-analyst admission quota; 0 means unlimited.
  long long per_analyst_quota = 0;
  /// Inner-solver iteration cap; 0 keeps the library default. Huge
  /// domains bound the O(|X| * dim) per-iteration solve cost with it.
  int solver_max_iters = 0;

  // -- Mechanism -----------------------------------------------------
  double alpha = 0.2;
  double beta = 0.05;
  double epsilon = 2.0;
  double delta = 1e-6;
  int override_updates = 32;
  /// Dataset shape: near-uniform keeps the sparse vector in its free
  /// kBottom steady state; logistic ground truth makes early queries
  /// fire hard rounds (oracle calls, privacy spend).
  enum class DataShape { kNearUniform, kLogistic };
  DataShape data = DataShape::kNearUniform;

  // -- Key popularity ------------------------------------------------
  enum class Popularity { kUniform, kZipfian };
  Popularity popularity = Popularity::kZipfian;
  /// Zipfian skew in [0, 1); ignored for kUniform.
  double zipf_theta = 0.99;
  /// Hot-set churn overlay: with probability `hot_fraction` an event
  /// draws uniformly from a working set of `hot_keys` keys that rotates
  /// to a disjoint set every `churn_every` events (epoch churn, the
  /// cache-adversarial mix). hot_keys == 0 disables the overlay.
  int hot_keys = 0;
  double hot_fraction = 0.0;
  long long churn_every = 0;

  // -- Arrival process -----------------------------------------------
  enum class Arrival { kClosedLoop, kOpenLoopPoisson };
  Arrival arrival = Arrival::kClosedLoop;
  /// Aggregate open-loop arrival rate; ignored for kClosedLoop.
  double open_loop_qps = 0.0;
  int analysts = 8;
  int queries_per_analyst = 192;
  /// > 1 groups consecutive per-analyst events into batched wire calls
  /// (api::Client::CallBatch). Closed-loop only.
  int batch_size = 1;
  /// Relative server-side deadline stamped on every request; 0 = none.
  uint64_t deadline_us = 0;

  uint64_t seed = 1;
  Slo slo;

  long long total_events() const {
    return static_cast<long long>(analysts) * queries_per_analyst;
  }
};

/// Stable names for the enums (used by the trace format and BENCH json).
const char* PopularityName(ScenarioSpec::Popularity popularity);
const char* ArrivalName(ScenarioSpec::Arrival arrival);
const char* DataShapeName(ScenarioSpec::DataShape shape);

/// The canonical scenario matrix: zipfian closed-loop, uniform open-loop
/// Poisson, hot-key churn, quota/deadline pressure, and the |X| = 2^20
/// huge domain. The nightly CI job runs exactly this list.
std::vector<ScenarioSpec> StandardScenarios();

/// StandardScenarios() entry by name; nullptr-free: returns false when
/// the name is unknown.
bool FindStandardScenario(const std::string& name, ScenarioSpec* spec);

}  // namespace workload
}  // namespace pmw

#endif  // PMWCM_BENCH_WORKLOAD_SCENARIO_H_
