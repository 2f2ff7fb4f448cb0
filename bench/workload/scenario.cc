#include "workload/scenario.h"

namespace pmw {
namespace workload {

const char* PopularityName(ScenarioSpec::Popularity popularity) {
  switch (popularity) {
    case ScenarioSpec::Popularity::kUniform:
      return "uniform";
    case ScenarioSpec::Popularity::kZipfian:
      return "zipfian";
  }
  return "unknown";
}

const char* ArrivalName(ScenarioSpec::Arrival arrival) {
  switch (arrival) {
    case ScenarioSpec::Arrival::kClosedLoop:
      return "closed_loop";
    case ScenarioSpec::Arrival::kOpenLoopPoisson:
      return "open_loop_poisson";
  }
  return "unknown";
}

const char* DataShapeName(ScenarioSpec::DataShape shape) {
  switch (shape) {
    case ScenarioSpec::DataShape::kNearUniform:
      return "near_uniform";
    case ScenarioSpec::DataShape::kLogistic:
      return "logistic";
  }
  return "unknown";
}

std::vector<ScenarioSpec> StandardScenarios() {
  std::vector<ScenarioSpec> scenarios;

  // Skewed repeat traffic from 8 closed-loop analysts: the regime the
  // cross-batch plan cache is built for, so the SLO insists the cache
  // actually carries the load.
  {
    ScenarioSpec spec;
    spec.name = "zipfian_closed";
    spec.popularity = ScenarioSpec::Popularity::kZipfian;
    spec.zipf_theta = 0.99;
    spec.arrival = ScenarioSpec::Arrival::kClosedLoop;
    spec.analysts = 8;
    spec.queries_per_analyst = 192;
    spec.seed = 101;
    spec.slo.max_p50_ms = 250.0;
    spec.slo.max_p99_ms = 1500.0;
    spec.slo.min_goodput_qps = 25.0;
    spec.slo.min_cache_hit_rate = 0.5;
    scenarios.push_back(spec);
  }

  // Open-loop Poisson arrivals at a fixed aggregate rate over a uniform
  // catalog: latency under an arrival process the server cannot slow
  // down (queue wait shows up in p99, not in a reduced request count).
  {
    ScenarioSpec spec;
    spec.name = "uniform_poisson_open";
    spec.popularity = ScenarioSpec::Popularity::kUniform;
    spec.arrival = ScenarioSpec::Arrival::kOpenLoopPoisson;
    spec.open_loop_qps = 2000.0;
    spec.analysts = 4;
    spec.queries_per_analyst = 256;
    spec.seed = 202;
    spec.slo.max_p99_ms = 2000.0;
    spec.slo.min_goodput_qps = 25.0;
    scenarios.push_back(spec);
  }

  // Hot working set rotating to a disjoint key set every 128 events, on
  // logistic (non-uniform) data so early queries fire hard rounds: epoch
  // bumps plus churn are the plan cache's adversarial mix, and the
  // privacy ledger records real spend.
  {
    ScenarioSpec spec;
    spec.name = "hotkey_churn";
    spec.popularity = ScenarioSpec::Popularity::kZipfian;
    spec.zipf_theta = 0.99;
    spec.hot_keys = 8;
    spec.hot_fraction = 0.9;
    spec.churn_every = 128;
    spec.data = ScenarioSpec::DataShape::kLogistic;
    spec.arrival = ScenarioSpec::Arrival::kClosedLoop;
    spec.analysts = 8;
    spec.queries_per_analyst = 192;
    spec.seed = 303;
    spec.slo.max_p50_ms = 250.0;
    spec.slo.max_p99_ms = 2000.0;
    spec.slo.min_goodput_qps = 25.0;
    scenarios.push_back(spec);
  }

  // Demand deliberately exceeds the per-analyst quota and every request
  // carries a tight deadline: the typed-rejection paths (kQuotaExceeded,
  // kDeadlineExpired) under load. Rejections are the point, so the SLO
  // allows them and judges goodput over what was admitted.
  {
    ScenarioSpec spec;
    spec.name = "quota_deadline_pressure";
    spec.popularity = ScenarioSpec::Popularity::kUniform;
    spec.arrival = ScenarioSpec::Arrival::kClosedLoop;
    spec.analysts = 8;
    spec.queries_per_analyst = 192;
    spec.per_analyst_quota = 96;
    spec.deadline_us = 20000;
    spec.seed = 404;
    spec.slo.max_p99_ms = 1500.0;
    spec.slo.min_goodput_qps = 10.0;
    spec.slo.allow_rejections = true;
    scenarios.push_back(spec);
  }

  // |X| = 2^20: the domain is 128x the other scenarios'. Near-uniform
  // data keeps the sparse vector in its kBottom steady state (the regime
  // where serving a huge domain must be cheap), epochs re-use one
  // compacted snapshot while no update intervenes, the small catalog +
  // solver cap bound the unavoidable O(|X| * dim) cold solves, and the
  // cache SLO insists the plan cache carries the steady state. Latency
  // bounds are dominated by the cold solves, hence the wide p99.
  {
    ScenarioSpec spec;
    spec.name = "huge_domain";
    spec.dim = 19;  // LabeledHypercubeUniverse: |X| = 2^(dim + 1) = 2^20
    spec.records = 50000;
    spec.catalog_queries = 6;
    spec.shards = 4;
    spec.solver_max_iters = 8;
    spec.alpha = 0.3;
    spec.popularity = ScenarioSpec::Popularity::kZipfian;
    spec.zipf_theta = 0.9;
    spec.arrival = ScenarioSpec::Arrival::kClosedLoop;
    spec.analysts = 4;
    spec.queries_per_analyst = 64;
    spec.seed = 505;
    spec.slo.max_p99_ms = 60000.0;
    spec.slo.min_goodput_qps = 1.0;
    spec.slo.min_cache_hit_rate = 0.5;
    scenarios.push_back(spec);
  }

  return scenarios;
}

bool FindStandardScenario(const std::string& name, ScenarioSpec* spec) {
  for (ScenarioSpec& candidate : StandardScenarios()) {
    if (candidate.name == name) {
      if (spec != nullptr) *spec = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace workload
}  // namespace pmw
