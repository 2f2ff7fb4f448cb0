// Unit tests for the convex substrate: vector ops, domains/projections,
// empirical objectives (including the chunked support reduction under
// thread-pool runners — the TSan CI job runs this binary), and all four
// solvers against known optima.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "common/chunk_runner.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "convex/auto_solver.h"
#include "convex/domain.h"
#include "convex/empirical_loss.h"
#include "convex/frank_wolfe.h"
#include "convex/golden_section.h"
#include "convex/gradient_descent.h"
#include "convex/loss_function.h"
#include "convex/vector_ops.h"
#include "data/binary_universe.h"
#include "gtest/gtest.h"
#include "losses/margin_losses.h"
#include "losses/transforms.h"
#include "serve/shard_router.h"

namespace pmw {
namespace convex {
namespace {

// A simple quadratic objective f(x) = ||x - target||^2 for solver tests.
class QuadraticObjective : public Objective {
 public:
  explicit QuadraticObjective(Vec target) : target_(std::move(target)) {}
  int dim() const override { return static_cast<int>(target_.size()); }
  double Value(const Vec& theta) const override {
    double acc = 0.0;
    for (size_t i = 0; i < target_.size(); ++i) {
      acc += (theta[i] - target_[i]) * (theta[i] - target_[i]);
    }
    return acc;
  }
  Vec Gradient(const Vec& theta) const override {
    Vec g(target_.size());
    for (size_t i = 0; i < target_.size(); ++i) {
      g[i] = 2.0 * (theta[i] - target_[i]);
    }
    return g;
  }

 private:
  Vec target_;
};

// Non-smooth convex: f(x) = sum |x_i - target_i|.
class AbsObjective : public Objective {
 public:
  explicit AbsObjective(Vec target) : target_(std::move(target)) {}
  int dim() const override { return static_cast<int>(target_.size()); }
  double Value(const Vec& theta) const override {
    double acc = 0.0;
    for (size_t i = 0; i < target_.size(); ++i) {
      acc += std::abs(theta[i] - target_[i]);
    }
    return acc;
  }
  Vec Gradient(const Vec& theta) const override {
    Vec g(target_.size());
    for (size_t i = 0; i < target_.size(); ++i) {
      double diff = theta[i] - target_[i];
      g[i] = diff > 0 ? 1.0 : (diff < 0 ? -1.0 : 0.0);
    }
    return g;
  }

 private:
  Vec target_;
};

TEST(VectorOpsTest, DotAndNorms) {
  Vec a = {1.0, 2.0, 2.0};
  Vec b = {2.0, 0.0, 1.0};
  EXPECT_NEAR(Dot(a, b), 4.0, 1e-12);
  EXPECT_NEAR(Norm2(a), 3.0, 1e-12);
  EXPECT_NEAR(Dist2(a, b), std::sqrt(1.0 + 4.0 + 1.0), 1e-12);
}

TEST(VectorOpsTest, AddSubScale) {
  Vec a = {1.0, -1.0};
  Vec b = {2.0, 3.0};
  Vec sum = Add(a, b);
  EXPECT_NEAR(sum[0], 3.0, 1e-12);
  Vec diff = Sub(a, b);
  EXPECT_NEAR(diff[1], -4.0, 1e-12);
  Vec scaled = Scaled(a, -2.0);
  EXPECT_NEAR(scaled[0], -2.0, 1e-12);
  AddScaledInPlace(&a, b, 0.5);
  EXPECT_NEAR(a[0], 2.0, 1e-12);
  ScaleInPlace(&a, 2.0);
  EXPECT_NEAR(a[0], 4.0, 1e-12);
}

TEST(L2BallTest, ProjectionInsideIsIdentity) {
  L2Ball ball(3);
  Vec v = {0.1, 0.2, -0.3};
  Vec w = v;
  ball.Project(&w);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(w[i], v[i], 1e-12);
}

TEST(L2BallTest, ProjectionOutsideHitsBoundary) {
  L2Ball ball(2);
  Vec v = {3.0, 4.0};
  ball.Project(&v);
  EXPECT_NEAR(Norm2(v), 1.0, 1e-12);
  EXPECT_NEAR(v[0], 0.6, 1e-12);
  EXPECT_NEAR(v[1], 0.8, 1e-12);
}

TEST(L2BallTest, OffCenterProjection) {
  L2Ball ball({1.0, 0.0}, 0.5);
  Vec v = {3.0, 0.0};
  ball.Project(&v);
  EXPECT_NEAR(v[0], 1.5, 1e-12);
  EXPECT_TRUE(ball.Contains(v, 1e-9));
  EXPECT_NEAR(ball.Diameter(), 1.0, 1e-12);
}

TEST(BoxTest, ProjectionClamps) {
  Box box({0.0, -1.0}, {1.0, 1.0});
  Vec v = {2.0, -3.0};
  box.Project(&v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(v[1], -1.0, 1e-12);
  EXPECT_TRUE(box.Contains(v, 1e-12));
  EXPECT_NEAR(box.Diameter(), std::sqrt(1.0 + 4.0), 1e-12);
}

TEST(IntervalTest, Basics) {
  Interval iv(0.0, 1.0);
  Vec v = {1.7};
  iv.Project(&v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);
  EXPECT_NEAR(iv.Center()[0], 0.5, 1e-12);
  EXPECT_NEAR(iv.Diameter(), 1.0, 1e-12);
}

TEST(SimplexTest, ProjectionLandsOnSimplex) {
  Simplex simplex(4);
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    Vec v = rng.GaussianVector(4, 2.0);
    simplex.Project(&v);
    EXPECT_TRUE(simplex.Contains(v, 1e-9)) << "trial " << trial;
  }
}

TEST(SimplexTest, ProjectionOfSimplexPointIsIdentity) {
  Simplex simplex(3);
  Vec v = {0.2, 0.3, 0.5};
  Vec w = v;
  simplex.Project(&w);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(w[i], v[i], 1e-9);
}

// Property: projection onto a convex set is the nearest point — no sampled
// feasible point may be closer.
TEST(ProjectionPropertyTest, ProjectionIsNearestPoint) {
  Rng rng(17);
  L2Ball ball(3);
  Simplex simplex(3);
  Box box({-0.5, -0.5, -0.5}, {0.5, 0.5, 0.5});
  const Domain* domains[] = {&ball, &simplex, &box};
  for (const Domain* domain : domains) {
    for (int trial = 0; trial < 30; ++trial) {
      Vec outside = rng.GaussianVector(3, 2.0);
      Vec projected = outside;
      domain->Project(&projected);
      double best = Dist2(outside, projected);
      for (int probe = 0; probe < 40; ++probe) {
        Vec candidate = rng.GaussianVector(3, 1.0);
        domain->Project(&candidate);
        EXPECT_GE(Dist2(outside, candidate) + 1e-9, best)
            << domain->name() << " trial " << trial;
      }
    }
  }
}

TEST(GradientDescentTest, SolvesUnconstrainedQuadratic) {
  QuadraticObjective objective({0.3, -0.2});
  L2Ball ball(2);
  GradientDescentSolver solver;
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.theta[0], 0.3, 1e-5);
  EXPECT_NEAR(result.theta[1], -0.2, 1e-5);
}

TEST(GradientDescentTest, RespectsConstraint) {
  QuadraticObjective objective({2.0, 0.0});  // optimum outside the ball
  L2Ball ball(2);
  GradientDescentSolver solver;
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.theta[0], 1.0, 1e-4);
  EXPECT_NEAR(result.theta[1], 0.0, 1e-4);
  EXPECT_LE(Norm2(result.theta), 1.0 + 1e-9);
}

TEST(GradientDescentTest, HandlesNonSmoothObjective) {
  AbsObjective objective({0.25, -0.5});
  L2Ball ball(2);
  SolverOptions options;
  options.max_iters = 2000;
  GradientDescentSolver solver(options);
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.value, 0.0, 0.01);
}

TEST(SubgradientSolverTest, MatchesGradientDescentOnQuadratic) {
  QuadraticObjective objective({0.1, 0.4});
  L2Ball ball(2);
  SolverOptions options;
  options.max_iters = 3000;
  SubgradientSolver solver(options);
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.value, 0.0, 5e-3);
}

TEST(FrankWolfeTest, LinearMinimizerBall) {
  L2Ball ball(2);
  Vec direction = {3.0, 4.0};
  Vec s = LinearMinimizer(ball, direction);
  EXPECT_NEAR(s[0], -0.6, 1e-12);
  EXPECT_NEAR(s[1], -0.8, 1e-12);
}

TEST(FrankWolfeTest, LinearMinimizerSimplexAndInterval) {
  Simplex simplex(3);
  Vec s = LinearMinimizer(simplex, {0.5, -1.0, 2.0});
  EXPECT_NEAR(s[1], 1.0, 1e-12);
  Interval iv(0.0, 1.0);
  Vec t = LinearMinimizer(iv, {-2.0});
  EXPECT_NEAR(t[0], 1.0, 1e-12);
}

TEST(FrankWolfeTest, SolvesQuadraticOnBall) {
  QuadraticObjective objective({0.3, 0.1});
  L2Ball ball(2);
  SolverOptions options;
  options.max_iters = 4000;
  FrankWolfeSolver solver(options);
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.value, 0.0, 1e-3);
}

TEST(GoldenSectionTest, ExactOnConvex1D) {
  QuadraticObjective objective({0.37});
  Interval iv(0.0, 1.0);
  GoldenSectionSolver solver;
  SolverResult result = solver.Minimize(objective, iv);
  EXPECT_NEAR(result.theta[0], 0.37, 1e-8);
  EXPECT_TRUE(result.converged);
}

TEST(GoldenSectionTest, BoundaryOptimum) {
  QuadraticObjective objective({1.8});
  Interval iv(0.0, 1.0);
  GoldenSectionSolver solver;
  SolverResult result = solver.Minimize(objective, iv);
  EXPECT_NEAR(result.theta[0], 1.0, 1e-7);
}

TEST(AutoSolverTest, DispatchesGoldenForInterval) {
  QuadraticObjective objective({0.2});
  Interval iv(0.0, 1.0);
  AutoSolver solver;
  SolverResult result = solver.Minimize(objective, iv);
  EXPECT_NEAR(result.theta[0], 0.2, 1e-7);
}

TEST(AutoSolverTest, DispatchesGdForBall) {
  QuadraticObjective objective({0.2, 0.3, -0.1});
  L2Ball ball(3);
  AutoSolver solver;
  SolverResult result = solver.Minimize(objective, ball);
  EXPECT_NEAR(result.value, 0.0, 1e-6);
}

TEST(PerturbedObjectiveTest, AddsLinearAndQuadraticTerms) {
  QuadraticObjective base({0.0, 0.0});
  PerturbedObjective perturbed(&base, {1.0, 0.0}, 2.0, {0.0, 1.0});
  Vec theta = {0.5, 0.5};
  // base = 0.5; linear = 0.5; quad = (2/2)*(0.25 + 0.25) = 0.5.
  EXPECT_NEAR(perturbed.Value(theta), 0.5 + 0.5 + 0.5, 1e-12);
  Vec g = perturbed.Gradient(theta);
  // base grad = (1, 1); + (1, 0); + 2*(0.5, -0.5) = (3, 0).
  EXPECT_NEAR(g[0], 3.0, 1e-12);
  EXPECT_NEAR(g[1], 0.0, 1e-12);
}

// A record-dependent loss for empirical-objective tests:
// l(theta; x) = ||theta - x.features||^2.
class RecordQuadraticLoss : public LossFunction {
 public:
  explicit RecordQuadraticLoss(int dim) : dim_(dim) {}
  int dim() const override { return dim_; }
  double Value(const Vec& theta, const data::Row& x) const override {
    double acc = 0.0;
    for (int i = 0; i < dim_; ++i) {
      acc += (theta[i] - x.features[i]) * (theta[i] - x.features[i]);
    }
    return acc;
  }
  void AddGradient(const Vec& theta, const data::Row& x, double weight,
                   Vec* grad) const override {
    for (int i = 0; i < dim_; ++i) {
      (*grad)[i] += weight * 2.0 * (theta[i] - x.features[i]);
    }
  }
  double lipschitz() const override { return 4.0; }
  std::string name() const override { return "record-quadratic"; }

 private:
  int dim_;
};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// A ChunkRunner that submits every chunk as its own pool task and joins
/// them all: the most scattered schedule a runner may produce.
ChunkRunner PoolRunner(ThreadPool* pool) {
  return [pool](int n, const std::function<void(int)>& fn) {
    std::vector<std::future<void>> pending;
    for (int i = 0; i < n; ++i) {
      pending.push_back(pool->Submit([&fn, i] { fn(i); }));
    }
    for (std::future<void>& f : pending) f.get();
  };
}

TEST(SupportObjectiveTest, ChunkedSweepsAreIndependentOfTheRunner) {
  // The reduction rule (empirical_loss.h): fixed chunks of kChunk entries,
  // each folded from zero, partials combined in chunk order. Whatever runs
  // the chunks — nobody, a pool of 1, 2 or 4 threads, the serving router
  // — and with SIMD on or off, Value and Gradient must give the same
  // bits; at one chunk or less they must be the plain serial fold.
  constexpr size_t kChunk = SupportObjective::kChunk;
  const data::LabeledHypercubeUniverse universe(17);  // |X| = 2^18
  const int dim = universe.dim();
  Rng rng(515);
  const size_t max_entries = 4 * kChunk + 17;
  ASSERT_LE(max_entries, static_cast<size_t>(universe.size()));
  data::HistogramSupport entries;
  for (size_t e = 0; e < max_entries; ++e) {
    // Every index at most once, skipping some, as a compacted support is.
    const int index = static_cast<int>(e + e / 7);
    if (index >= universe.size()) break;
    entries.emplace_back(index, rng.Uniform(0.0, 1.0) / kChunk);
  }
  ASSERT_GE(entries.size(), max_entries);
  Vec theta;
  for (int j = 0; j < dim; ++j) theta.push_back(rng.Uniform(-0.3, 0.3));

  std::vector<int> flips;
  for (int j = 0; j < dim; ++j) flips.push_back(j % 3 == 0 ? -1 : 1);
  const losses::LogisticLoss logistic(dim);
  const losses::HingeLoss hinge(dim);
  const losses::SignFlipLoss flipped_logistic(&logistic, flips, -1);
  const losses::SignFlipLoss flipped_hinge(&hinge, flips, 1);
  // Declines the batch path, so the per-row fallback is chunked too.
  const RecordQuadraticLoss row_loop(dim);
  const std::pair<const char*, const LossFunction*> losses[] = {
      {"logistic", &logistic},
      {"hinge", &hinge},
      {"flipped-logistic", &flipped_logistic},
      {"flipped-hinge", &flipped_hinge},
      {"row-loop", &row_loop}};

  ThreadPool pool1(1), pool2(2), pool4(4);
  const ChunkRunner runners[] = {PoolRunner(&pool1), PoolRunner(&pool2),
                                 PoolRunner(&pool4)};
  serve::ShardRouter router(&pool4);
  const ChunkRunner routed = router.AsRunner();

  const bool simd_before = simd::Enabled();
  for (const bool simd_on : {false, true}) {
    if (simd_on && !simd::Available()) continue;
    simd::SetEnabled(simd_on);
    for (const size_t size :
         {kChunk - 1, kChunk, kChunk + 1, 4 * kChunk + 17}) {
      const data::HistogramSupport support(entries.begin(),
                                           entries.begin() + size);
      for (const auto& [name, loss] : losses) {
        const std::string where = std::string(name) + " size=" +
                                  std::to_string(size) +
                                  (simd_on ? " simd=on" : " simd=off");
        // The rule, spelled out: chunk partials from zero, combined in
        // chunk order. At one chunk this is the plain serial fold.
        double want = 0.0;
        Vec want_grad = Zeros(dim);
        for (size_t lo = 0; lo < size; lo += kChunk) {
          const size_t hi = std::min(lo + kChunk, size);
          double part = 0.0;
          Vec part_grad = Zeros(dim);
          for (size_t e = lo; e < hi; ++e) {
            const data::Row row = universe.row(support[e].first);
            part += support[e].second * loss->Value(theta, row);
            loss->AddGradient(theta, row, support[e].second, &part_grad);
          }
          want = lo == 0 ? part : want + part;
          for (int j = 0; j < dim; ++j) {
            want_grad[j] =
                lo == 0 ? part_grad[j] : want_grad[j] + part_grad[j];
          }
        }

        const SupportObjective inline_objective(loss, &universe, &support);
        EXPECT_EQ(Bits(inline_objective.Value(theta)), Bits(want)) << where;
        const Vec inline_grad = inline_objective.Gradient(theta);
        for (int j = 0; j < dim; ++j) {
          EXPECT_EQ(Bits(inline_grad[j]), Bits(want_grad[j]))
              << where << " coord " << j;
        }
        std::vector<const ChunkRunner*> all = {&routed};
        for (const ChunkRunner& runner : runners) all.push_back(&runner);
        for (size_t r = 0; r < all.size(); ++r) {
          const SupportObjective objective(loss, &universe, &support, all[r]);
          EXPECT_EQ(Bits(objective.Value(theta)), Bits(want))
              << where << " runner " << r;
          const Vec grad = objective.Gradient(theta);
          for (int j = 0; j < dim; ++j) {
            EXPECT_EQ(Bits(grad[j]), Bits(want_grad[j]))
                << where << " runner " << r << " coord " << j;
          }
        }
      }
    }
  }
  simd::SetEnabled(simd_before);
}

// Property sweep: all three multi-dim solvers agree on random quadratics
// over the unit ball.
class SolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreementTest, AllSolversAgreeOnRandomQuadratics) {
  Rng rng(1000 + GetParam());
  Vec target = rng.GaussianVector(3, 0.8);
  QuadraticObjective objective(target);
  L2Ball ball(3);

  SolverOptions options;
  options.max_iters = 4000;
  GradientDescentSolver gd(options);
  SubgradientSolver sub(options);
  FrankWolfeSolver fw(options);

  double v_gd = gd.Minimize(objective, ball).value;
  double v_sub = sub.Minimize(objective, ball).value;
  double v_fw = fw.Minimize(objective, ball).value;
  EXPECT_NEAR(v_gd, v_sub, 2e-2);
  EXPECT_NEAR(v_gd, v_fw, 2e-2);
}

INSTANTIATE_TEST_SUITE_P(RandomQuadratics, SolverAgreementTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace convex
}  // namespace pmw
