// The domain-sharded hypothesis of the PMW-CM mechanism.
//
// The paper maintains one multiplicative-weights histogram D_hat over the
// whole universe X; this class partitions it into K contiguous domain
// shards so the MW-update hot path (reweigh every x, renormalize)
// decomposes into K independent per-shard passes plus O(K)-sized
// combines — the distribution unit of the sharded serving engine
// (serve/shard_router.h).
//
// The non-negotiable invariant is that sharding never changes a single
// bit of the hypothesis: at any K the update produces exactly the K = 1
// (fully sequential) doubles, so transcripts stay bit-identical to
// sequential PmwCm. Three facts make that true:
//
//   * Reweighing (log-weight + payoff, exp, divide) is elementwise —
//     partitioning cannot reorder any arithmetic.
//   * The stabilizing max is reduced per shard and folded across shards
//     in fixed order; floating-point max is associative, so grouping is
//     irrelevant.
//   * The normalizer is the ONE true reduction. It is computed by
//     pairwise summation with a fixed split rule (common/math_util.h's
//     PairwiseSum: always split at lo + (hi - lo) / 2), and shard
//     boundaries are generated by the SAME recursive halving — so every
//     shard is an internal node of the fixed reduction tree, each
//     shard's partial sum equals that subtree's value exactly, and the
//     cross-shard combine just evaluates the remaining top of the tree.
//     K must therefore be a power of two; Repartition clamps.
//
// Threading: per-shard phases touch disjoint [lo, hi) slices and may run
// on any threads (the optional ShardRunner); every combine runs on the
// calling (single-writer) thread in fixed shard order.

#ifndef PMWCM_CORE_SHARDED_HYPOTHESIS_H_
#define PMWCM_CORE_SHARDED_HYPOTHESIS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/chunk_runner.h"
#include "data/histogram.h"

namespace pmw {
namespace core {

/// One contiguous domain shard [lo, hi) plus the per-shard reduction
/// state an MW update publishes before each combine.
struct HypothesisShard {
  int lo = 0;
  int hi = 0;
  /// Local max of the reweighed log-weights (phase 1 output).
  double local_max = 0.0;
  /// Pairwise partial sum of the unnormalized weights (phase 2 output);
  /// exactly the shard's subtree value in the fixed reduction tree.
  double local_sum = 0.0;

  int size() const { return hi - lo; }
};

/// Runs fn(s) for every shard s in [0, num_shards) and returns only once
/// all shards completed — the common ChunkRunner shape
/// (common/chunk_runner.h), with shards as the pieces. The serving layer
/// installs a thread-pool-backed runner (serve::ShardRouter); null means
/// "loop inline in shard order", the sequential configuration.
/// Implementations may run shards in any order or concurrency — per-shard
/// work is disjoint and the combines happen on the caller afterwards, so
/// scheduling cannot change results.
using ShardRunner = ChunkRunner;

class ShardedHypothesis {
 public:
  /// The uniform hypothesis over `size` elements (the paper's D_hat_1),
  /// as a single dense shard.
  explicit ShardedHypothesis(int size);

  /// Repartitions into `shards` domain shards — rounded down to a power
  /// of two and clamped to [1, size] (values < 1 included: 0 means
  /// "unsharded") so every shard is a node of the fixed reduction tree
  /// and non-empty. Content is untouched (the partition is serving
  /// topology, not state). Returns the actual count.
  int Repartition(int shards);

  /// Installs the per-shard executor for MultiplicativeUpdate's parallel
  /// phases (null restores the inline loop).
  void set_runner(ShardRunner runner) { runner_ = std::move(runner); }

  int size() const { return size_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const HypothesisShard& shard(int s) const { return shards_[s]; }
  const std::vector<HypothesisShard>& shards() const { return shards_; }
  /// Probability of element i.
  double operator[](int i) const { return p_[static_cast<size_t>(i)]; }

  /// Stable identity of the current partition (count + boundaries):
  /// what (epoch, shard-set)-aware plan caches key on.
  uint64_t fingerprint() const { return fingerprint_; }

  /// The strictly-positive entries, full or per shard range — same
  /// semantics as data::Histogram::CompactSupport.
  data::HistogramSupport CompactSupport() const;
  data::HistogramSupport CompactSupport(int lo, int hi) const;

  /// A dense Histogram copy (synthetic-data release, measurement code).
  data::Histogram ToHistogram() const;

  /// The multiplicative weights update of Figure 3, sharded:
  ///   p'(x) proportional to exp(eta * payoff(x)) * p(x)
  /// computed in log-space. Phases 1-3 run per shard (via the runner);
  /// the max fold and the normalizer combine run here in fixed order.
  /// Bit-identical at every shard count (see file comment).
  void MultiplicativeUpdate(const std::vector<double>& payoff, double eta);

  /// Runs fn(s) over every shard through the installed runner (inline in
  /// shard order without one). Also the entry point for callers with
  /// their own per-shard work over this partition — PmwCm's
  /// dual-certificate payoff loop — so the dispatch logic lives once.
  void RunShards(const std::function<void(int)>& fn) const;

 private:
  /// Folds the per-shard partial sums up the fixed reduction tree:
  /// combines shards [lo, hi) by the same halving that generated the
  /// partition, so the result equals PairwiseSum over the whole range.
  double CombineShardSums(int lo, int hi) const;

  int size_ = 0;
  /// Probabilities and reusable update scratch (log-weights, then
  /// unnormalized weights).
  std::vector<double> p_;
  std::vector<double> scratch_;
  std::vector<HypothesisShard> shards_;
  uint64_t fingerprint_ = 0;
  ShardRunner runner_;
};

}  // namespace core
}  // namespace pmw

#endif  // PMWCM_CORE_SHARDED_HYPOTHESIS_H_
