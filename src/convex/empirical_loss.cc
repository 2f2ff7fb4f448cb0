#include "convex/empirical_loss.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace pmw {
namespace convex {

SupportObjective::SupportObjective(const LossFunction* loss,
                                   const data::Universe* universe,
                                   const data::HistogramSupport* support,
                                   const ChunkRunner* runner)
    : loss_(loss), universe_(universe), support_(support), runner_(runner) {
  PMW_CHECK(loss != nullptr);
  PMW_CHECK(universe != nullptr);
  PMW_CHECK(support != nullptr);
}

void SupportObjective::ForEachChunk(size_t chunks,
                                    const std::function<void(int)>& fn) const {
  if (runner_ != nullptr && *runner_) {
    (*runner_)(static_cast<int>(chunks), fn);
    return;
  }
  for (size_t c = 0; c < chunks; ++c) fn(static_cast<int>(c));
}

double SupportObjective::ChunkValue(const Vec& theta, size_t lo,
                                    size_t hi) const {
  double acc = 0.0;
  // A loss that claims the batch path must produce the same bits as the
  // per-row loop below (loss_function.h), so the dispatch never changes
  // the objective value, only its cost.
  if (loss_->BatchValue(theta, *universe_, support_->data() + lo, hi - lo,
                        &acc)) {
    return acc;
  }
  for (size_t e = lo; e < hi; ++e) {
    const auto& [index, mass] = (*support_)[e];
    acc += mass * loss_->Value(theta, universe_->row(index));
  }
  return acc;
}

void SupportObjective::ChunkAddGradient(const Vec& theta, size_t lo,
                                        size_t hi, Vec* grad) const {
  if (loss_->BatchAddGradient(theta, *universe_, support_->data() + lo,
                              hi - lo, grad)) {
    return;
  }
  for (size_t e = lo; e < hi; ++e) {
    const auto& [index, mass] = (*support_)[e];
    loss_->AddGradient(theta, universe_->row(index), mass, grad);
  }
}

double SupportObjective::Value(const Vec& theta) const {
  const size_t chunks = num_chunks();
  if (chunks <= 1) return ChunkValue(theta, 0, support_->size());
  std::vector<double> parts(chunks);
  ForEachChunk(chunks, [&](int c) {
    const size_t lo = static_cast<size_t>(c) * kChunk;
    parts[static_cast<size_t>(c)] =
        ChunkValue(theta, lo, std::min(lo + kChunk, support_->size()));
  });
  double acc = parts[0];
  for (size_t c = 1; c < chunks; ++c) acc += parts[c];
  return acc;
}

Vec SupportObjective::Gradient(const Vec& theta) const {
  const size_t chunks = num_chunks();
  Vec grad = Zeros(loss_->dim());
  if (chunks <= 1) {
    ChunkAddGradient(theta, 0, support_->size(), &grad);
    return grad;
  }
  std::vector<Vec> parts(chunks, grad);
  ForEachChunk(chunks, [&](int c) {
    const size_t lo = static_cast<size_t>(c) * kChunk;
    ChunkAddGradient(theta, lo, std::min(lo + kChunk, support_->size()),
                     &parts[static_cast<size_t>(c)]);
  });
  grad = std::move(parts[0]);
  for (size_t c = 1; c < chunks; ++c) {
    for (size_t j = 0; j < grad.size(); ++j) grad[j] += parts[c][j];
  }
  return grad;
}

DatasetObjective::DatasetObjective(const LossFunction* loss,
                                   const data::Dataset* dataset)
    : loss_(loss), dataset_(dataset) {
  PMW_CHECK(loss != nullptr);
  PMW_CHECK(dataset != nullptr);
  std::map<int, int> counts;
  for (int i = 0; i < dataset->n(); ++i) counts[dataset->index(i)] += 1;
  double inv_n = 1.0 / static_cast<double>(dataset->n());
  weighted_rows_.reserve(counts.size());
  for (const auto& [index, count] : counts) {
    weighted_rows_.emplace_back(index, count * inv_n);
  }
}

double DatasetObjective::Value(const Vec& theta) const {
  double acc = 0.0;
  for (const auto& [index, weight] : weighted_rows_) {
    acc += weight * loss_->Value(theta, dataset_->universe().row(index));
  }
  return acc;
}

Vec DatasetObjective::Gradient(const Vec& theta) const {
  Vec grad = Zeros(loss_->dim());
  for (const auto& [index, weight] : weighted_rows_) {
    loss_->AddGradient(theta, dataset_->universe().row(index), weight, &grad);
  }
  return grad;
}

PerturbedObjective::PerturbedObjective(const Objective* base, Vec linear_term,
                                       double quadratic_mu,
                                       Vec quadratic_center)
    : base_(base),
      linear_term_(std::move(linear_term)),
      quadratic_mu_(quadratic_mu),
      quadratic_center_(std::move(quadratic_center)) {
  PMW_CHECK(base != nullptr);
  PMW_CHECK_EQ(static_cast<int>(linear_term_.size()), base->dim());
  PMW_CHECK_EQ(static_cast<int>(quadratic_center_.size()), base->dim());
  PMW_CHECK_GE(quadratic_mu_, 0.0);
}

double PerturbedObjective::Value(const Vec& theta) const {
  double value = base_->Value(theta) + Dot(linear_term_, theta);
  if (quadratic_mu_ > 0.0) {
    double dist = Dist2(theta, quadratic_center_);
    value += 0.5 * quadratic_mu_ * dist * dist;
  }
  return value;
}

Vec PerturbedObjective::Gradient(const Vec& theta) const {
  Vec grad = base_->Gradient(theta);
  for (size_t i = 0; i < grad.size(); ++i) {
    grad[i] += linear_term_[i];
    if (quadratic_mu_ > 0.0) {
      grad[i] += quadratic_mu_ * (theta[i] - quadratic_center_[i]);
    }
  }
  return grad;
}

}  // namespace convex
}  // namespace pmw
