// Empirical objectives: the expected loss of a LossFunction over a dataset
// or a histogram support, i.e. the functions
// l_D(theta) = sum_x D(x) l(theta; x) the paper minimizes (Section 2.2).

#ifndef PMWCM_CONVEX_EMPIRICAL_LOSS_H_
#define PMWCM_CONVEX_EMPIRICAL_LOSS_H_

#include <cstddef>
#include <functional>

#include "common/chunk_runner.h"
#include "convex/loss_function.h"
#include "convex/vector_ops.h"
#include "data/dataset.h"
#include "data/histogram.h"

namespace pmw {
namespace convex {

/// A differentiable objective f : R^d -> R to be minimized over a Domain.
class Objective {
 public:
  virtual ~Objective() = default;
  virtual int dim() const = 0;
  virtual double Value(const Vec& theta) const = 0;
  virtual Vec Gradient(const Vec& theta) const = 0;
};

/// l_D(theta) over a compacted histogram support (data::HistogramSupport):
/// f(theta) = sum_e mass_e l(theta; row_e), skipping zero-mass rows, so
/// its cost is O(support size * d). The one weighted-row reduction in the
/// mechanism: ErrorOracle compacts dense histograms once and comes here
/// too, and the serving layer compacts the hypothesis once per epoch and
/// evaluates every query through it.
///
/// The reduction rule. Value and Gradient split the support by position
/// into fixed chunks of kChunk entries (the last one may be shorter). Each
/// chunk folds its entries in entry order from 0.0 (zeros for the
/// gradient), through the loss's BatchValue/BatchAddGradient or the
/// per-row loop; the partials then combine on the caller in chunk order,
/// acc = part[0], acc += part[c] (coordinate-wise for the gradient). The
/// rule depends on the support alone — never on threads, shards or the
/// runner — so every way of executing it yields the same bits, and a
/// support of at most one chunk is exactly the plain serial fold.
///
/// Why chunks: at |X| = 2^20 a hypothesis-side solve sweeps ~|X| entries
/// per objective call and dominates the serving prepare path. A fixed
/// partition lets a runner spread one sweep over the cores while the sum's
/// association stays a function of the support size.
///
/// `runner` (optional, not owned, must outlive the objective) executes the
/// chunks of a multi-chunk sweep; null runs them inline in chunk order.
/// It is an argument, never hidden state, so callers that already run
/// on a pool (perfbench's replay, the serving layer's across-query
/// fan-out) pass none and nest nothing. The loss and universe must be
/// safe to read from several threads, as every loss in the repo is.
class SupportObjective : public Objective {
 public:
  /// Support entries per chunk. A constant, not an option: changing it
  /// changes every multi-chunk sum's association, and so the bits.
  static constexpr size_t kChunk = size_t{1} << 15;

  SupportObjective(const LossFunction* loss, const data::Universe* universe,
                   const data::HistogramSupport* support,
                   const ChunkRunner* runner = nullptr);

  int dim() const override { return loss_->dim(); }
  double Value(const Vec& theta) const override;
  Vec Gradient(const Vec& theta) const override;

 private:
  size_t num_chunks() const {
    return (support_->size() + kChunk - 1) / kChunk;
  }
  /// Runs fn(c) for every chunk c through the runner, or inline.
  void ForEachChunk(size_t chunks, const std::function<void(int)>& fn) const;
  /// The partial of entries [lo, hi): folded from 0.0 / accumulated into
  /// `*grad`, which the caller zeroes.
  double ChunkValue(const Vec& theta, size_t lo, size_t hi) const;
  void ChunkAddGradient(const Vec& theta, size_t lo, size_t hi,
                        Vec* grad) const;

  const LossFunction* loss_;
  const data::Universe* universe_;
  const data::HistogramSupport* support_;
  const ChunkRunner* runner_;
};

/// l_D(theta) for a dataset: f(theta) = (1/n) sum_i l(theta; x_i). Evaluated
/// through per-universe-row counts, so repeated rows cost nothing extra.
class DatasetObjective : public Objective {
 public:
  DatasetObjective(const LossFunction* loss, const data::Dataset* dataset);

  int dim() const override { return loss_->dim(); }
  double Value(const Vec& theta) const override;
  Vec Gradient(const Vec& theta) const override;

 private:
  const LossFunction* loss_;
  const data::Dataset* dataset_;
  std::vector<std::pair<int, double>> weighted_rows_;  // (index, weight)
};

/// f(theta) + <b, theta> + (mu/2)||theta - center||^2; the decorated
/// objective used by objective perturbation and localization.
class PerturbedObjective : public Objective {
 public:
  PerturbedObjective(const Objective* base, Vec linear_term,
                     double quadratic_mu, Vec quadratic_center);

  int dim() const override { return base_->dim(); }
  double Value(const Vec& theta) const override;
  Vec Gradient(const Vec& theta) const override;

 private:
  const Objective* base_;
  Vec linear_term_;
  double quadratic_mu_;
  Vec quadratic_center_;
};

}  // namespace convex
}  // namespace pmw

#endif  // PMWCM_CONVEX_EMPIRICAL_LOSS_H_
