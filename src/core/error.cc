#include "core/error.h"

#include <algorithm>

#include "common/check.h"
#include "convex/empirical_loss.h"

namespace pmw {
namespace core {

ErrorOracle::ErrorOracle(const data::Universe* universe,
                         convex::SolverOptions solver_options)
    : universe_(universe), solver_(solver_options) {
  PMW_CHECK(universe != nullptr);
}

convex::Vec ErrorOracle::Minimize(const convex::CmQuery& query,
                                  const data::Histogram& histogram) const {
  PMW_CHECK_EQ(histogram.size(), universe_->size());
  return Minimize(query, histogram.CompactSupport());
}

double ErrorOracle::MinimumValue(const convex::CmQuery& query,
                                 const data::Histogram& histogram) const {
  PMW_CHECK_EQ(histogram.size(), universe_->size());
  return MinimumValue(query, histogram.CompactSupport());
}

double ErrorOracle::Loss(const convex::CmQuery& query,
                         const data::Histogram& histogram,
                         const convex::Vec& theta) const {
  PMW_CHECK_EQ(histogram.size(), universe_->size());
  return Loss(query, histogram.CompactSupport(), theta);
}

double ErrorOracle::AnswerError(const convex::CmQuery& query,
                                const data::Histogram& histogram,
                                const convex::Vec& theta_hat) const {
  PMW_CHECK_EQ(histogram.size(), universe_->size());
  return AnswerError(query, histogram.CompactSupport(), theta_hat);
}

convex::Vec ErrorOracle::Minimize(const convex::CmQuery& query,
                                  const data::HistogramSupport& support,
                                  const ChunkRunner* runner) const {
  convex::SupportObjective objective(query.loss, universe_, &support, runner);
  return solver_.Minimize(objective, *query.domain).theta;
}

double ErrorOracle::MinimumValue(const convex::CmQuery& query,
                                 const data::HistogramSupport& support) const {
  convex::SupportObjective objective(query.loss, universe_, &support);
  return solver_.Minimize(objective, *query.domain).value;
}

double ErrorOracle::Loss(const convex::CmQuery& query,
                         const data::HistogramSupport& support,
                         const convex::Vec& theta) const {
  convex::SupportObjective objective(query.loss, universe_, &support);
  return objective.Value(theta);
}

double ErrorOracle::AnswerError(const convex::CmQuery& query,
                                const data::HistogramSupport& support,
                                const convex::Vec& theta_hat) const {
  double excess =
      Loss(query, support, theta_hat) - MinimumValue(query, support);
  return std::max(excess, 0.0);
}

double ErrorOracle::DatabaseError(const convex::CmQuery& query,
                                  const data::Histogram& histogram,
                                  const data::Histogram& surrogate) const {
  convex::Vec theta_surrogate = Minimize(query, surrogate);
  return AnswerError(query, histogram, theta_surrogate);
}

}  // namespace core
}  // namespace pmw
