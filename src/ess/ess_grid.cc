#include "ess/ess_grid.h"

#include <algorithm>
#include <cassert>

#include "common/math_util.h"

namespace bouquet {

EssGrid::EssGrid(const QuerySpec& query, std::vector<int> resolutions) {
  assert(resolutions.size() == query.error_dims.size());
  axes_.reserve(resolutions.size());
  for (size_t d = 0; d < resolutions.size(); ++d) {
    const ErrorDimension& dim = query.error_dims[d];
    axes_.push_back(LogSpace(dim.lo, dim.hi, resolutions[d]));
  }
  strides_.resize(axes_.size());
  num_points_ = 1;
  // Last dimension is the fastest-varying.
  for (int d = static_cast<int>(axes_.size()) - 1; d >= 0; --d) {
    strides_[d] = num_points_;
    num_points_ *= axes_[d].size();
  }
}

EssGrid::EssGrid(const QuerySpec& query, std::vector<int> resolutions,
                 const DimVector& lo, const DimVector& hi) {
  assert(resolutions.size() == query.error_dims.size());
  assert(lo.size() == resolutions.size() && hi.size() == resolutions.size());
  (void)query;
  axes_.reserve(resolutions.size());
  for (size_t d = 0; d < resolutions.size(); ++d) {
    assert(lo[d] > 0.0 && hi[d] > lo[d]);
    axes_.push_back(LogSpace(lo[d], hi[d], resolutions[d]));
  }
  strides_.resize(axes_.size());
  num_points_ = 1;
  for (int d = static_cast<int>(axes_.size()) - 1; d >= 0; --d) {
    strides_[d] = num_points_;
    num_points_ *= axes_[d].size();
  }
}

int EssGrid::DefaultResolutionForDims(int dims) {
  switch (dims) {
    case 1:
      return 100;
    case 2:
      return 64;
    case 3:
      return 20;
    case 4:
      return 12;
    case 5:
      return 8;
    default:
      return 6;
  }
}

EssGrid EssGrid::WithDefaultResolution(const QuerySpec& query) {
  const int d = query.NumDims();
  return EssGrid(query, std::vector<int>(d, DefaultResolutionForDims(d)));
}

DimVector EssGrid::SelectivityAt(const GridPoint& p) const {
  DimVector out(dims());
  for (int d = 0; d < dims(); ++d) out[d] = axes_[d][p[d]];
  return out;
}

DimVector EssGrid::SelectivityAt(uint64_t linear) const {
  return SelectivityAt(PointAt(linear));
}

void EssGrid::SelectivityAt(uint64_t linear, DimVector* out) const {
  out->resize(dims());
  for (int d = 0; d < dims(); ++d) {
    const auto& ax = axes_[d];
    (*out)[d] = ax[linear / strides_[d] % ax.size()];
  }
}

uint64_t EssGrid::LinearIndex(const GridPoint& p) const {
  uint64_t idx = 0;
  for (int d = 0; d < dims(); ++d) {
    assert(p[d] >= 0 && p[d] < resolution(d));
    idx += strides_[d] * static_cast<uint64_t>(p[d]);
  }
  return idx;
}

GridPoint EssGrid::PointAt(uint64_t linear) const {
  GridPoint p(dims());
  PointAt(linear, p.data());
  return p;
}

void EssGrid::PointAt(uint64_t linear, int* out) const {
  for (int d = 0; d < dims(); ++d) {
    out[d] = static_cast<int>(linear / strides_[d]);
    linear %= strides_[d];
  }
}

uint64_t EssGrid::LinearWithDim(uint64_t linear, int d, int idx) const {
  const int cur = static_cast<int>(linear / strides_[d] %
                                   static_cast<uint64_t>(resolution(d)));
  return linear + (static_cast<int64_t>(idx) - cur) *
                      static_cast<int64_t>(strides_[d]);
}

int EssGrid::AxisFloor(int d, double s) const {
  const auto& ax = axes_[d];
  const int i = LowerIndex(ax, s);
  return std::max(0, i);
}

int EssGrid::AxisCeil(int d, double s) const {
  const auto& ax = axes_[d];
  auto it = std::lower_bound(ax.begin(), ax.end(), s);
  if (it == ax.end()) return static_cast<int>(ax.size()) - 1;
  return static_cast<int>(it - ax.begin());
}

bool EssGrid::Dominates(const GridPoint& a, const GridPoint& b) {
  assert(a.size() == b.size());
  for (size_t d = 0; d < a.size(); ++d) {
    if (a[d] > b[d]) return false;
  }
  return true;
}

void EssGrid::ForEach(
    const std::function<void(uint64_t, const GridPoint&)>& fn) const {
  GridPoint p(dims(), 0);
  for (uint64_t i = 0; i < num_points_; ++i) {
    fn(i, p);
    // Odometer increment, last dimension fastest.
    for (int d = dims() - 1; d >= 0; --d) {
      if (++p[d] < resolution(d)) break;
      p[d] = 0;
    }
  }
}

GridPoint EssGrid::MaxCorner() const {
  GridPoint p(dims());
  for (int d = 0; d < dims(); ++d) p[d] = resolution(d) - 1;
  return p;
}

}  // namespace bouquet
