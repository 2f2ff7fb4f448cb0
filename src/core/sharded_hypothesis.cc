#include "core/sharded_hypothesis.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"
#include "common/simd.h"

namespace pmw {
namespace core {
namespace {

/// Recursive halving with PairwiseSum's split rule: after `levels`
/// splits every emitted range is a depth-`levels` node of the fixed
/// reduction tree over [lo, hi).
void SplitRange(int lo, int hi, int levels,
                std::vector<HypothesisShard>* out) {
  if (levels == 0) {
    HypothesisShard shard;
    shard.lo = lo;
    shard.hi = hi;
    out->push_back(shard);
    return;
  }
  const int mid = lo + (hi - lo) / 2;
  SplitRange(lo, mid, levels - 1, out);
  SplitRange(mid, hi, levels - 1, out);
}

/// The fixed power-of-two partition of [0, size): `shards` rounded down
/// to a power of two and clamped to [1, size], each emitted range a node
/// of PairwiseSum's reduction tree (split at lo + (hi - lo) / 2).
std::vector<HypothesisShard> PartitionDomain(int size, int shards) {
  PMW_CHECK_GE(size, 1);
  if (shards < 1) shards = 1;
  // Largest power of two <= min(shards, size): every shard must be a
  // reduction-tree node (power-of-two count) and non-empty (<= size).
  int levels = 0;
  while ((2 << levels) <= shards && (2 << levels) <= size) ++levels;
  std::vector<HypothesisShard> out;
  SplitRange(0, size, levels, &out);
  return out;
}

}  // namespace

ShardedHypothesis::ShardedHypothesis(int size)
    : size_(size),
      p_(static_cast<size_t>(size), 1.0 / size),
      scratch_(static_cast<size_t>(size)) {
  PMW_CHECK_GE(size, 1);
  Repartition(1);
}

int ShardedHypothesis::Repartition(int shards) {
  shards_ = PartitionDomain(size(), shards);
  // FNV-1a over the partition: shard-set identity for plan caches.
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(shards_.size()));
  for (const HypothesisShard& shard : shards_) {
    mix(static_cast<uint64_t>(shard.lo));
    mix(static_cast<uint64_t>(shard.hi));
  }
  fingerprint_ = hash;
  return num_shards();
}

void ShardedHypothesis::RunShards(const std::function<void(int)>& fn) const {
  if (runner_ != nullptr && num_shards() > 1) {
    runner_(num_shards(), fn);
    return;
  }
  for (int s = 0; s < num_shards(); ++s) fn(s);
}

data::HistogramSupport ShardedHypothesis::CompactSupport() const {
  return CompactSupport(0, size());
}

data::HistogramSupport ShardedHypothesis::CompactSupport(int lo,
                                                         int hi) const {
  PMW_CHECK_GE(lo, 0);
  PMW_CHECK_LE(lo, hi);
  PMW_CHECK_LE(hi, size());
  size_t support_size = 0;
  for (int i = lo; i < hi; ++i) {
    if (p_[static_cast<size_t>(i)] > 0.0) ++support_size;
  }
  data::HistogramSupport support;
  support.reserve(support_size);
  for (int i = lo; i < hi; ++i) {
    if (p_[static_cast<size_t>(i)] > 0.0) {
      support.emplace_back(i, p_[static_cast<size_t>(i)]);
    }
  }
  return support;
}

data::Histogram ShardedHypothesis::ToHistogram() const {
  return data::Histogram::FromWeights(p_);
}

double ShardedHypothesis::CombineShardSums(int lo, int hi) const {
  if (hi - lo == 1) return shards_[static_cast<size_t>(lo)].local_sum;
  const int mid = lo + (hi - lo) / 2;
  return CombineShardSums(lo, mid) + CombineShardSums(mid, hi);
}

void ShardedHypothesis::MultiplicativeUpdate(
    const std::vector<double>& payoff, double eta) {
  PMW_CHECK_EQ(payoff.size(), static_cast<size_t>(size_));
  // Phase 1 (per shard): log-weights and the shard-local max. Split into
  // a scalar log pass (libm stays per-element) and a vectorizable
  // axpy+max pass: per element the same two IEEE ops in the same order
  // as the fused loop (t = SafeLog(p); t + eta * payoff), so the split
  // changes no bits; the kernel's max-fold reorder is downstream-exact
  // (common/simd.h).
  RunShards([this, &payoff, eta](int s) {
    HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    const size_t lo = static_cast<size_t>(shard.lo);
    const size_t n = static_cast<size_t>(shard.hi - shard.lo);
    for (size_t i = lo; i < lo + n; ++i) {
      scratch_[i] = SafeLog(p_[i]);
    }
    double local_max = -std::numeric_limits<double>::infinity();
    simd::AxpyMax(scratch_.data() + lo, payoff.data() + lo, eta, n,
                  &local_max);
    shard.local_max = local_max;
  });
  // Max fold: associative, so the grouping by shards is exact.
  double global_max = -std::numeric_limits<double>::infinity();
  for (const HypothesisShard& shard : shards_) {
    global_max = std::max(global_max, shard.local_max);
  }

  // Phase 2 (per shard): stabilized weights and the shard's subtree sum.
  // The stabilizing subtract vectorizes (elementwise, exact); std::exp
  // stays scalar per element; PairwiseSum's 4/8-leaf nodes vectorize
  // inside the fixed tree (common/simd.h), so the association — and the
  // transcript — is unchanged.
  RunShards([this, global_max](int s) {
    HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    const size_t lo = static_cast<size_t>(shard.lo);
    const size_t n = static_cast<size_t>(shard.hi - shard.lo);
    simd::SubScalar(scratch_.data() + lo, global_max, n);
    for (size_t i = lo; i < lo + n; ++i) {
      scratch_[i] = std::exp(scratch_[i]);
    }
    shard.local_sum = PairwiseSum(scratch_.data(), lo, lo + n);
  });
  // Normalizer combine: O(K), evaluates the top of the fixed tree.
  const double total = CombineShardSums(0, num_shards());
  PMW_CHECK_GT(total, 0.0);

  // Phase 3 (per shard): normalize in place (elementwise divide, exact).
  RunShards([this, total](int s) {
    const HypothesisShard& shard = shards_[static_cast<size_t>(s)];
    const size_t lo = static_cast<size_t>(shard.lo);
    const size_t n = static_cast<size_t>(shard.hi - shard.lo);
    simd::DivScalarTo(p_.data() + lo, scratch_.data() + lo, total, n);
  });
}

}  // namespace core
}  // namespace pmw
