// The sharding-invariance contract of core::ShardedHypothesis: at ANY
// power-of-two shard count the MW update produces the exact K = 1
// doubles — the bit-level foundation under the serving layer's
// "transcripts are identical at every (shards x threads) configuration"
// guarantee. Also covers the partition rules (power-of-two rounding,
// size clamping, fingerprints) and the zero-copy support slicing the
// epochs publish.

#include "core/sharded_hypothesis.h"

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "data/histogram.h"
#include "gtest/gtest.h"

namespace pmw {
namespace core {
namespace {

bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

std::vector<double> RandomPayoff(int size, Rng* rng) {
  std::vector<double> payoff(static_cast<size_t>(size));
  for (double& value : payoff) value = rng->Gaussian(0.0, 1.0);
  return payoff;
}

TEST(ShardedHypothesisTest, UpdateIsBitIdenticalAtEveryShardCount) {
  // Odd, non-power-of-two sizes included: the fixed reduction tree must
  // decompose exactly even when halving produces unequal shards.
  for (int size : {5, 16, 33, 128, 1000}) {
    ShardedHypothesis reference(size);
    ASSERT_EQ(reference.num_shards(), 1);
    std::vector<ShardedHypothesis> sharded;
    for (int shards : {2, 4, 8}) {
      sharded.emplace_back(size);
      sharded.back().Repartition(shards);
    }

    Rng rng(900 + static_cast<uint64_t>(size));
    for (int round = 0; round < 20; ++round) {
      const std::vector<double> payoff = RandomPayoff(size, &rng);
      const double eta = rng.Uniform(-2.0, 2.0);
      reference.MultiplicativeUpdate(payoff, eta);
      for (ShardedHypothesis& hypothesis : sharded) {
        hypothesis.MultiplicativeUpdate(payoff, eta);
        for (int i = 0; i < size; ++i) {
          ASSERT_TRUE(SameBits(reference[i], hypothesis[i]))
              << "size=" << size << " shards=" << hypothesis.num_shards()
              << " round=" << round << " index=" << i;
        }
      }
    }
  }
}

TEST(ShardedHypothesisTest, UpdateIsBitIdenticalUnderAConcurrentRunner) {
  // A deliberately adversarial runner: every shard on its own thread,
  // completion order scrambled. Per-shard work is disjoint and combines
  // are fixed-order on the caller, so the bits cannot move.
  constexpr int kSize = 257;
  ShardedHypothesis reference(kSize);
  ShardedHypothesis threaded(kSize);
  threaded.Repartition(4);
  std::atomic<int> sections{0};
  threaded.set_runner(
      [&sections](int shards, const std::function<void(int)>& fn) {
        ++sections;
        std::vector<std::thread> workers;
        for (int s = shards - 1; s >= 0; --s) {
          workers.emplace_back([&fn, s] { fn(s); });
        }
        for (std::thread& worker : workers) worker.join();
      });

  Rng rng(4242);
  for (int round = 0; round < 10; ++round) {
    const std::vector<double> payoff = RandomPayoff(kSize, &rng);
    const double eta = rng.Uniform(-1.5, 1.5);
    reference.MultiplicativeUpdate(payoff, eta);
    threaded.MultiplicativeUpdate(payoff, eta);
    for (int i = 0; i < kSize; ++i) {
      ASSERT_TRUE(SameBits(reference[i], threaded[i]))
          << "round=" << round << " index=" << i;
    }
  }
  // 3 parallel phases per update.
  EXPECT_EQ(sections.load(), 30);
}

TEST(ShardedHypothesisTest, RepartitionRoundsDownAndClamps) {
  ShardedHypothesis hypothesis(16);
  EXPECT_EQ(hypothesis.Repartition(1), 1);
  EXPECT_EQ(hypothesis.Repartition(2), 2);
  EXPECT_EQ(hypothesis.Repartition(3), 2);   // round down to a power of 2
  EXPECT_EQ(hypothesis.Repartition(4), 4);
  EXPECT_EQ(hypothesis.Repartition(7), 4);
  EXPECT_EQ(hypothesis.Repartition(64), 16);  // clamp to the size

  // Shards partition [0, size) contiguously, every one non-empty.
  hypothesis.Repartition(4);
  int expected_lo = 0;
  for (const HypothesisShard& shard : hypothesis.shards()) {
    EXPECT_EQ(shard.lo, expected_lo);
    EXPECT_GT(shard.size(), 0);
    expected_lo = shard.hi;
  }
  EXPECT_EQ(expected_lo, hypothesis.size());

  // Fingerprints identify the partition, not the content.
  ShardedHypothesis other(16);
  other.Repartition(4);
  EXPECT_EQ(hypothesis.fingerprint(), other.fingerprint());
  other.Repartition(2);
  EXPECT_NE(hypothesis.fingerprint(), other.fingerprint());
}

TEST(ShardedHypothesisTest, ShardSupportsConcatenateToTheFullSupport) {
  constexpr int kSize = 37;
  ShardedHypothesis hypothesis(kSize);
  hypothesis.Repartition(4);
  Rng rng(7);
  hypothesis.MultiplicativeUpdate(RandomPayoff(kSize, &rng), 0.8);

  const data::HistogramSupport full = hypothesis.CompactSupport();
  data::HistogramSupport stitched;
  for (const HypothesisShard& shard : hypothesis.shards()) {
    for (const auto& entry : hypothesis.CompactSupport(shard.lo, shard.hi)) {
      stitched.push_back(entry);
    }
  }
  ASSERT_EQ(stitched.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(stitched[i].first, full[i].first);
    EXPECT_TRUE(SameBits(stitched[i].second, full[i].second));
  }

  // And the zero-copy slices agree with the range compactions.
  for (const HypothesisShard& shard : hypothesis.shards()) {
    const data::SupportSlice slice =
        data::SliceSupport(full, shard.lo, shard.hi);
    const data::HistogramSupport range =
        hypothesis.CompactSupport(shard.lo, shard.hi);
    ASSERT_EQ(slice.size(), range.size());
    for (size_t i = 0; i < range.size(); ++i) {
      EXPECT_EQ(slice[i].first, range[i].first);
      EXPECT_TRUE(SameBits(slice[i].second, range[i].second));
    }
  }
}

TEST(ShardedHypothesisTest, PairwiseSumDecomposesAtEverySplit) {
  // The primitive under the normalizer: sum(lo, hi) must equal
  // sum(lo, mid) + sum(mid, hi) for the tree's own split point, at
  // every node — checked here for the root of assorted sizes.
  Rng rng(11);
  for (size_t n : {1u, 2u, 3u, 7u, 16u, 33u, 1024u, 1000u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.Gaussian(0.0, 1.0);
    const double whole = PairwiseSum(v.data(), 0, n);
    if (n >= 2) {
      const size_t mid = n / 2;
      const double halves =
          PairwiseSum(v.data(), 0, mid) + PairwiseSum(v.data(), mid, n);
      EXPECT_TRUE(SameBits(whole, halves)) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace pmw
