// Shards a query batch across thread-pool workers and prepares every
// query against one immutable epoch snapshot.
//
// Why this is safe to parallelize: PmwCm::Prepare is const, deterministic,
// and draws no randomness — each plan is a pure function of (query,
// snapshot). Sharding therefore cannot change any plan's value, only the
// wall-clock to compute them; the single-writer commit loop that consumes
// the plans (serve::PmwService) replays the mechanism's stateful part
// (sparse-vector draws, oracle calls, MW updates, ledger appends) in
// canonical arrival order, which is what makes the parallel transcript
// bit-identical to the sequential one.
//
// Dedup happens *before* sharding: one cheap pointer-identity pass over
// the range collects the distinct queries (PR 1's batch cache, hoisted),
// the distinct set is sharded contiguously across workers, and each
// plan is scattered back to every position that asked for it. Cycling
// workloads — many clients asking overlapping questions — therefore
// amortize identically at every thread count, and workers never compute
// the same plan twice regardless of how repeats straddle shards. The same
// QueryKey then keys the cross-batch PlanCache, so a repeat in a later
// batch skips the solver too.

#ifndef PMWCM_SERVE_SHARD_EXECUTOR_H_
#define PMWCM_SERVE_SHARD_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "convex/cm_query.h"
#include "core/pmw_cm.h"
#include "serve/epoch_state.h"

namespace pmw {
namespace serve {

/// Identity of a CM query: the loss/domain objects (families own them and
/// keep them alive; equal pointers <=> same mathematical query).
struct QueryKey {
  const void* loss;
  const void* domain;
  bool operator==(const QueryKey& other) const {
    return loss == other.loss && domain == other.domain;
  }
};
struct QueryKeyHash {
  size_t operator()(const QueryKey& key) const {
    size_t h = std::hash<const void*>()(key.loss);
    return h ^ (std::hash<const void*>()(key.domain) + 0x9e3779b9 + (h << 6) +
                (h >> 2));
  }
};

/// The epoch identity a plan is computed under and validated against.
/// `shard_set` names the partition, `content` folds the per-shard content
/// fingerprints of the published support (Epoch::content_fingerprint),
/// and `version` is the hypothesis version stamped into plans.
struct PlanStamp {
  int version = -1;
  uint64_t shard_set = 0;
  uint64_t content = 0;
};

/// The cross-batch plan cache: one slot per distinct query, stamped with
/// the (shard_set, content) of the epoch its plan was computed under.
/// Queries travel by catalog name and every name resolves to one
/// pointer-stable entry, so the map never holds more than |catalog|
/// plans and needs no replacement policy.
///
/// Correctness: Prepare is a pure function of (query, support bytes),
/// and sharding never changes the hypothesis bits, so a cached plan
/// whose stamp agrees with the probing epoch on (shard_set, content) is
/// byte-identical to what Prepare would recompute — even when the
/// hypothesis *version* differs, as it does on every soft round between
/// hard updates. The one field Prepare derives from the version rather
/// than the bytes, the plan's hypothesis_version, is restamped to the
/// probing version on every hit; after that the plan equals a recompute
/// byte for byte, so serving from the cache can never change a
/// transcript — only the wall-clock.
///
/// Staleness: the hypothesis only moves forward, so a slot whose stamp
/// no longer matches is never valid again. PrepareRange inserts after
/// every miss, which overwrites the stale slot in place; no separate
/// drop path exists.
///
/// Lifetime: keys are loss/domain pointers, so the query families (the
/// catalog) must outlive the cache. Threading: the serving writer is the
/// only caller (PrepareRange probes before fanning work out and inserts
/// after joining the shards), so there is no lock.
class PlanCache {
 public:
  /// Copies the plan for `key` into `*plan`, restamped to
  /// `stamp.version`, and returns true when the slot was computed under
  /// `stamp`'s (shard_set, content); returns false on a miss.
  bool Lookup(const QueryKey& key, const PlanStamp& stamp,
              core::PreparedQuery* plan) const;
  /// Stores `plan`, computed under `stamp`, in `key`'s slot (replacing
  /// any older plan for the same query).
  void Insert(const QueryKey& key, const PlanStamp& stamp,
              const core::PreparedQuery& plan);
  /// Slots held: one per distinct query ever inserted.
  size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t shard_set = 0;
    uint64_t content = 0;
    core::PreparedQuery plan;
  };
  std::unordered_map<QueryKey, Slot, QueryKeyHash> slots_;
};

class ShardExecutor {
 public:
  /// `pool` may be null: every range then runs inline on the caller's
  /// thread as a single shard (the sequential service configuration).
  /// `cm` must outlive the executor.
  ShardExecutor(ThreadPool* pool, const core::PmwCm* cm);

  struct PrepareResult {
    /// One plan per *distinct* query in the range, in first-appearance
    /// order. Kept deduplicated — consumers index through plan_of —
    /// so a repeat-heavy batch never deep-copies plans per position.
    std::vector<core::PreparedQuery> plans;
    /// plan_of[i] is the plans index answering queries[begin + i].
    std::vector<size_t> plan_of;
    /// plan_from_cache[u] is 1 when plans[u] was served from the
    /// cross-batch cache instead of recomputed (feeds the per-query
    /// cache-hit flag the api layer reports).
    std::vector<uint8_t> plan_from_cache;
    /// Queries whose plan was shared with an earlier identical query in
    /// the range (range size minus distinct queries).
    long long cache_hits = 0;
    /// Distinct queries probed against the cross-batch plan cache (0
    /// when no cache was supplied).
    long long cross_batch_lookups = 0;
    /// Distinct queries served from the cross-batch cache instead of
    /// being recomputed.
    long long cross_batch_hits = 0;
    /// Shards actually dispatched for this range.
    int shards = 0;
  };

  /// Prepares queries[begin, end) against `epoch`'s snapshot, fanning the
  /// distinct queries out across the pool. Blocks until every shard
  /// finishes. A non-null `cache` is probed per distinct query before any
  /// solver runs (hits skip computation entirely) and fed every fresh
  /// plan after the shards join — both on the calling thread.
  PrepareResult PrepareRange(std::span<const convex::CmQuery> queries,
                             size_t begin, size_t end, const Epoch& epoch,
                             PlanCache* cache = nullptr) const;

 private:
  /// Prepares the cache-missed queries whose plan slots are
  /// slots[lo, hi): plans[slots[u]] receives the plan for
  /// queries[positions[slots[u]]]. Runs on a worker (or inline). Reads
  /// only const state: the mechanism's Prepare path and the epoch
  /// snapshot.
  void PrepareShard(std::span<const convex::CmQuery> queries,
                    const std::vector<size_t>& positions,
                    const std::vector<size_t>& slots, size_t lo, size_t hi,
                    const Epoch& epoch, core::PreparedQuery* plans) const;

  ThreadPool* pool_;
  const core::PmwCm* cm_;
};

}  // namespace serve
}  // namespace pmw

#endif  // PMWCM_SERVE_SHARD_EXECUTOR_H_
