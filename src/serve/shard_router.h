// serve::ShardRouter — fans the single serving writer's parallel
// sections across the thread pool: the per-shard phases of a hard round
// and the fixed chunks of a hypothesis-side objective sweep.
//
// Two users, one shape (common/chunk_runner.h):
//   * The sharded hypothesis (core/sharded_hypothesis.h) decomposes the
//     MW-update hot path into K independent per-shard passes; cross-shard
//     quantities (the normalizer) reduce from per-shard partial sums on
//     the writer afterwards. PmwService installs the router into
//     core::PmwCm as its ShardRunner when num_shards > 1.
//   * convex::SupportObjective splits every objective sweep into fixed
//     chunks of SupportObjective::kChunk support entries and combines the
//     per-chunk partials in chunk order. When an epoch's support is larger
//     than one chunk, ShardExecutor prepares its cache misses one at a
//     time on the writer and hands each Prepare the router, so every
//     sweep of every solve spreads over the pool — whatever num_shards is.
//
// Run(n, fn) groups the n indices into at most pool-size contiguous runs,
// submits runs 1.. to workers, runs the first on the writer (which would
// otherwise just block on the join), and rethrows worker exceptions only
// after every run joined, so none is left writing into a dead frame. With
// n <= pool size every run is a single index (the MW path).
//
// Determinism: pieces write disjoint state and every combine happens on
// the calling writer thread in fixed index order, so scheduling and
// grouping can only change wall-clock — never a bit of the transcript.

#ifndef PMWCM_SERVE_SHARD_ROUTER_H_
#define PMWCM_SERVE_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/chunk_runner.h"
#include "common/thread_pool.h"

namespace pmw {
namespace serve {

class ShardRouter {
 public:
  /// `pool` may be null: every shard then runs inline on the caller's
  /// thread, in shard order (the sequential configuration).
  explicit ShardRouter(ThreadPool* pool) : pool_(pool) {}

  /// Runs shard_fn(s) for every s in [0, num_shards) and returns once
  /// all completed, in at most pool-size contiguous groups (see the file
  /// comment). Only the single serving writer may call this (the closures
  /// it routes mutate writer-owned state, and the counters below are
  /// writer-local); never from a pool worker, which could deadlock the
  /// pool waiting on itself.
  void Run(int num_shards, const std::function<void(int)>& shard_fn);

  /// The router as a ChunkRunner (= core::ShardRunner), for
  /// PmwCm::ConfigureSharding and PmwCm::Prepare. The router must
  /// outlive every holder of the returned runner.
  ChunkRunner AsRunner() {
    return [this](int num_shards, const std::function<void(int)>& fn) {
      Run(num_shards, fn);
    };
  }

  /// Parallel sections routed (one per Run that actually fanned out —
  /// MW phases and multi-chunk objective sweeps alike) and group tasks
  /// dispatched to workers. Writer-thread counters: read
  /// them only from the writer or after serving quiesces.
  long long sections() const { return sections_; }
  long long shard_tasks() const { return shard_tasks_; }

  /// Opens a per-shard wall-clock window: subsequent Run calls
  /// accumulate each shard's elapsed microseconds into a slot owned by
  /// that shard (workers write disjoint preallocated entries — no
  /// locking, no effect on transcript bits). Writer-thread only.
  void ResetWindow(int num_shards);

  /// Per-shard microseconds accumulated since the last ResetWindow.
  /// Read on the writer after Run has joined — never concurrently.
  const std::vector<uint64_t>& WindowShardUs() const { return window_us_; }

 private:
  ThreadPool* pool_;
  long long sections_ = 0;
  long long shard_tasks_ = 0;
  /// Slot s is written only by the thread running shard s (inside Run,
  /// between fan-out and join), read by the writer after the join.
  std::vector<uint64_t> window_us_;
};

}  // namespace serve
}  // namespace pmw

#endif  // PMWCM_SERVE_SHARD_ROUTER_H_
