#include "bouquet/contour_index.h"

#include <algorithm>
#include <cassert>

#include "optimizer/plan.h"

namespace bouquet {

void ContourIndex::Scratch::ResetExcluded() {
  std::fill(mark.begin(), mark.end(), 0);
}

ContourIndex::ContourIndex(const PlanBouquet& bouquet,
                           const PlanDiagram& diagram, const QuerySpec& query)
    : dims_(diagram.grid().dims()) {
  const EssGrid& grid = diagram.grid();
  dense_of_plan_.assign(static_cast<size_t>(diagram.num_plans()), -1);
  auto intern = [&](int pid) {
    if (dense_of_plan_[pid] >= 0) return dense_of_plan_[pid];
    dense_of_plan_[pid] = static_cast<int>(plan_of_dense_.size());
    plan_of_dense_.push_back(pid);
    return dense_of_plan_[pid];
  };
  for (int pid : bouquet.plan_ids) intern(pid);

  offset_.reserve(bouquet.contours.size() + 1);
  offset_.push_back(0);
  for (const BouquetContour& contour : bouquet.contours) {
    offset_.push_back(offset_.back() + contour.points.size());
  }
  coords_.resize(offset_.back() * dims_);
  dense_at_.reserve(offset_.back());
  int* coords = coords_.data();
  for (const BouquetContour& contour : bouquet.contours) {
    for (size_t i = 0; i < contour.points.size(); ++i, coords += dims_) {
      grid.PointAt(contour.points[i], coords);
      dense_at_.push_back(intern(contour.plan_at[i]));
    }
  }

  assert(query.error_dims.size() == static_cast<size_t>(dims_));
  depth_.resize(plan_of_dense_.size() * dims_);
  for (size_t d = 0; d < plan_of_dense_.size(); ++d) {
    const PlanNode& root = *diagram.plan(plan_of_dense_[d]).root;
    for (int dim = 0; dim < dims_; ++dim) {
      const ErrorDimension& ed = query.error_dims[dim];
      depth_[d * dims_ + dim] = ErrorNodeMaxDepth(
          root, ed.kind == DimKind::kJoin, ed.predicate_index);
    }
  }
}

int ContourIndex::dense(int plan_id) const {
  if (plan_id < 0 || static_cast<size_t>(plan_id) >= dense_of_plan_.size()) {
    return -1;
  }
  return dense_of_plan_[plan_id];
}

int ContourIndex::DeepestUnlearned(int dense, const std::vector<bool>& learned,
                                   int* depth) const {
  const int* row = &depth_[static_cast<size_t>(dense) * dims_];
  int dim = -1;
  *depth = -1;
  for (int d = 0; d < dims_; ++d) {
    if (learned[d]) continue;
    if (row[d] > *depth) {
      *depth = row[d];
      dim = d;
    }
  }
  return dim;
}

void ContourIndex::Candidates(size_t k, const int* lo, Scratch* s) const {
  s->candidates.clear();
  s->axis.clear();
  const int* p = &coords_[offset_[k] * dims_];
  for (size_t i = offset_[k]; i < offset_[k + 1]; ++i, p += dims_) {
    int above = 0;
    int d = 0;
    for (; d < dims_; ++d) {
      if (p[d] < lo[d]) break;
      above += p[d] > lo[d] ? 1 : 0;
    }
    if (d < dims_) continue;  // outside the first quadrant of lo
    const int plan = dense_at_[i];
    uint8_t& m = s->mark[plan];
    if (m & kExcluded) continue;
    if (!(m & kListed)) {
      m |= kListed;
      s->candidates.push_back(plan);
    }
    if (above <= 1 && !(m & kOnAxis)) {
      m |= kOnAxis;
      s->axis.push_back(plan);
    }
  }
  // Axis plans are a subset of the candidates, so this clears every mark
  // the scan set.
  for (int plan : s->candidates) s->mark[plan] = 0;
}

}  // namespace bouquet
