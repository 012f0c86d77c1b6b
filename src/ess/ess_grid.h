// The discretized Error-prone Selectivity Space (ESS).
//
// Each error dimension of a query contributes one log-spaced axis spanning
// its declared [lo, hi] selectivity range (selectivity behavior is
// multiplicative, hence the log spacing — the paper's figures are log-log).
// Grid points are addressed both as per-dimension index vectors and as
// flattened linear indexes.

#ifndef BOUQUET_ESS_ESS_GRID_H_
#define BOUQUET_ESS_ESS_GRID_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "optimizer/selectivity.h"
#include "query/query_spec.h"

namespace bouquet {

/// Per-dimension grid indexes of one ESS location.
using GridPoint = std::vector<int>;

/// A D-dimensional log-spaced selectivity grid.
class EssGrid {
 public:
  /// One resolution per error dimension of the query.
  EssGrid(const QuerySpec& query, std::vector<int> resolutions);

  /// Explicit-box overload: axes span the given per-dimension [lo, hi]
  /// instead of the query's declared ranges. Used by the feedback layer to
  /// compile over a shrunken ESS box (observed selectivity support plus a
  /// guard band); callers must keep lo/hi inside the declared ranges so
  /// SnapToGrid clamping stays meaningful.
  EssGrid(const QuerySpec& query, std::vector<int> resolutions,
          const DimVector& lo, const DimVector& hi);

  /// Default resolutions chosen by dimensionality (1D:100, 2D:64, 3D:20,
  /// 4D:12, 5D:8, >=6D:6) so exhaustive POSP stays tractable.
  static EssGrid WithDefaultResolution(const QuerySpec& query);
  static int DefaultResolutionForDims(int dims);

  int dims() const { return static_cast<int>(axes_.size()); }
  int resolution(int d) const { return static_cast<int>(axes_[d].size()); }
  uint64_t num_points() const { return num_points_; }
  const std::vector<double>& axis(int d) const { return axes_[d]; }

  /// Selectivity vector at a grid point.
  DimVector SelectivityAt(const GridPoint& p) const;
  DimVector SelectivityAt(uint64_t linear) const;

  /// Allocation-free variant for per-point hot loops: writes the vector into
  /// *out (resized to dims() if needed).
  void SelectivityAt(uint64_t linear, DimVector* out) const;

  uint64_t LinearIndex(const GridPoint& p) const;
  GridPoint PointAt(uint64_t linear) const;
  /// Allocation-free variant: writes the dims() indexes into out[0..dims).
  void PointAt(uint64_t linear, int* out) const;

  /// Linear index of p with dimension d's index replaced by idx.
  uint64_t LinearWithDim(uint64_t linear, int d, int idx) const;

  /// Index of the largest axis value <= s on dimension d (clamped to 0).
  int AxisFloor(int d, double s) const;
  /// Index of the smallest axis value >= s on dimension d (clamped to max).
  int AxisCeil(int d, double s) const;

  /// True if a <= b componentwise (a is in the third quadrant of b).
  static bool Dominates(const GridPoint& a, const GridPoint& b);

  /// Invokes fn(linear_index, point) over the whole grid in linear order.
  void ForEach(
      const std::function<void(uint64_t, const GridPoint&)>& fn) const;

  /// The origin (all-zero) and the principal-diagonal corner (all-max).
  GridPoint Origin() const { return GridPoint(dims(), 0); }
  GridPoint MaxCorner() const;

 private:
  std::vector<std::vector<double>> axes_;
  std::vector<uint64_t> strides_;
  uint64_t num_points_ = 1;
};

}  // namespace bouquet

#endif  // BOUQUET_ESS_ESS_GRID_H_
