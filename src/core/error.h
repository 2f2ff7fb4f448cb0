// Error of an answer (Definition 2.2) and of a database (Definition 2.3):
// excess empirical risk of an answer theta_hat, and of the minimizer
// computed from a surrogate database D'. The latter is exactly the
// (3S/n)-sensitive query q_j(D) = err_l(D, D_hat_t) that the paper's
// algorithm feeds to the sparse vector (Figure 3, Section 3.4.2).

#ifndef PMWCM_CORE_ERROR_H_
#define PMWCM_CORE_ERROR_H_

#include <memory>

#include "common/chunk_runner.h"
#include "convex/auto_solver.h"
#include "convex/cm_query.h"
#include "data/histogram.h"
#include "data/universe.h"

namespace pmw {
namespace core {

/// Computes argmins and excess risks for CM queries against histograms.
/// Holds the inner (non-private) solver; one instance per experiment.
class ErrorOracle {
 public:
  explicit ErrorOracle(const data::Universe* universe,
                       convex::SolverOptions solver_options = {});

  const data::Universe& universe() const { return *universe_; }

  /// Dense-histogram variants: each compacts `histogram` once
  /// (Histogram::CompactSupport) and runs the support variant below, so
  /// dense and support answers agree by construction.
  /// argmin_theta l_D(theta) over the query's domain.
  convex::Vec Minimize(const convex::CmQuery& query,
                       const data::Histogram& histogram) const;

  /// min_theta l_D(theta).
  double MinimumValue(const convex::CmQuery& query,
                      const data::Histogram& histogram) const;

  /// l_D(theta).
  double Loss(const convex::CmQuery& query, const data::Histogram& histogram,
              const convex::Vec& theta) const;

  /// Definition 2.2: err_l(D, theta_hat) = l_D(theta_hat) - min l_D.
  /// Clamped below at 0 (solver jitter can make it epsilon-negative).
  double AnswerError(const convex::CmQuery& query,
                     const data::Histogram& histogram,
                     const convex::Vec& theta_hat) const;

  /// Support-based variants over a precomputed compacted support (see
  /// data::HistogramSupport), evaluated through convex::SupportObjective.
  /// Callers that evaluate many queries against one histogram compact it
  /// once and use these. Minimize's optional `runner` (not owned) fans
  /// each objective sweep's fixed chunks out — same bits as inline; see
  /// SupportObjective for the reduction rule. The oracle never stores it.
  convex::Vec Minimize(const convex::CmQuery& query,
                       const data::HistogramSupport& support,
                       const ChunkRunner* runner = nullptr) const;
  double MinimumValue(const convex::CmQuery& query,
                      const data::HistogramSupport& support) const;
  double Loss(const convex::CmQuery& query,
              const data::HistogramSupport& support,
              const convex::Vec& theta) const;
  double AnswerError(const convex::CmQuery& query,
                     const data::HistogramSupport& support,
                     const convex::Vec& theta_hat) const;

  /// Definition 2.3: err_l(D, D') = l_D(argmin l_D') - min l_D.
  double DatabaseError(const convex::CmQuery& query,
                       const data::Histogram& histogram,
                       const data::Histogram& surrogate) const;

 private:
  const data::Universe* universe_;
  convex::AutoSolver solver_;
};

}  // namespace core
}  // namespace pmw

#endif  // PMWCM_CORE_ERROR_H_
