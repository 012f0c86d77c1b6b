#include "ess/contour_generator.h"

#include <algorithm>
#include <cassert>

#include "common/math_util.h"
#include "optimizer/optimizer.h"

namespace bouquet {

namespace {

class ContourPospBuilder {
 public:
  ContourPospBuilder(const QuerySpec& query, const Catalog& catalog,
                     CostParams params, const EssGrid& grid, double ratio)
      : opt_(query, catalog, params), grid_(grid), ratio_(ratio) {}

  SparsePosp Build() {
    const GridPoint lo = grid_.Origin();
    const GridPoint hi = grid_.MaxCorner();
    result_.cmin = CostAt(lo);
    result_.cmax = CostAt(hi);
    result_.steps = GeometricSteps(result_.cmin, result_.cmax, ratio_);
    Recurse(lo, hi);
    result_.optimizer_calls = calls_;
    return std::move(result_);
  }

 private:
  // Optimizes (memoized) and records the point; returns its optimal cost.
  double CostAt(const GridPoint& p) {
    const uint64_t linear = grid_.LinearIndex(p);
    auto it = result_.entries.find(linear);
    if (it != result_.entries.end()) return it->second.second;
    ++calls_;
    const Plan plan = opt_.OptimizeAt(grid_.SelectivityAt(p));
    const int id = Intern(plan);
    result_.entries.emplace(linear, std::make_pair(id, plan.cost));
    return plan.cost;
  }

  int Intern(const Plan& plan) {
    auto it = sig_to_id_.find(plan.signature);
    if (it != sig_to_id_.end()) return it->second;
    const int id = static_cast<int>(result_.plans.size());
    result_.plans.push_back(plan);
    sig_to_id_.emplace(plan.signature, id);
    return id;
  }

  // True when some isocost step falls inside [clo, chi].
  bool ContourPasses(double clo, double chi) const {
    for (double s : result_.steps) {
      if (s >= clo && s <= chi) return true;
    }
    return false;
  }

  void OptimizeBox(const GridPoint& lo, const GridPoint& hi) {
    GridPoint p = lo;
    for (;;) {
      CostAt(p);
      int d = grid_.dims() - 1;
      for (; d >= 0; --d) {
        if (++p[d] <= hi[d]) break;
        p[d] = lo[d];
      }
      if (d < 0) break;
    }
  }

  void Recurse(const GridPoint& lo, const GridPoint& hi) {
    const double clo = CostAt(lo);
    const double chi = CostAt(hi);
    if (!ContourPasses(clo, chi)) return;  // cube lies between contours

    // Small enough: optimize every point (the "band").
    int longest = -1;
    int longest_len = 0;
    for (int d = 0; d < grid_.dims(); ++d) {
      const int len = hi[d] - lo[d] + 1;
      if (len > longest_len) {
        longest_len = len;
        longest = d;
      }
    }
    if (longest_len <= 3) {
      OptimizeBox(lo, hi);
      return;
    }
    // Split the longest dimension.
    const int mid = lo[longest] + (longest_len - 1) / 2;
    GridPoint hi1 = hi;
    hi1[longest] = mid;
    GridPoint lo2 = lo;
    lo2[longest] = mid + 1;
    Recurse(lo, hi1);
    Recurse(lo2, hi);
  }

  QueryOptimizer opt_;
  const EssGrid& grid_;
  double ratio_;
  SparsePosp result_;
  std::unordered_map<std::string, int> sig_to_id_;
  long long calls_ = 0;
};

}  // namespace

SparsePosp GenerateContourPosp(const QuerySpec& query, const Catalog& catalog,
                               CostParams params, const EssGrid& grid,
                               double ratio) {
  ContourPospBuilder builder(query, catalog, params, grid, ratio);
  return builder.Build();
}

std::vector<std::vector<uint64_t>> ExtractSparseContours(
    const SparsePosp& posp, const EssGrid& grid) {
  const int m = static_cast<int>(posp.steps.size());
  // Band assignment: smallest k with cost <= IC_k.
  std::vector<std::vector<uint64_t>> bands(m);
  // NOLINTNEXTLINE(bouquet-determinism): each contour is sorted below
  for (const auto& [linear, entry] : posp.entries) {
    const double c = entry.second;
    for (int k = 0; k < m; ++k) {
      if (c <= posp.steps[k] * (1.0 + 1e-12)) {
        bands[k].push_back(linear);
        break;
      }
    }
  }
  // Contour k = componentwise-maximal points of band k.
  std::vector<std::vector<uint64_t>> contours(m);
  for (int k = 0; k < m; ++k) {
    std::vector<GridPoint> pts;
    pts.reserve(bands[k].size());
    for (uint64_t l : bands[k]) pts.push_back(grid.PointAt(l));
    for (size_t i = 0; i < pts.size(); ++i) {
      bool maximal = true;
      for (size_t j = 0; j < pts.size() && maximal; ++j) {
        if (i == j) continue;
        // pts[i] strictly dominated by pts[j]?
        if (EssGrid::Dominates(pts[i], pts[j]) && pts[i] != pts[j]) {
          maximal = false;
        }
      }
      if (maximal) contours[k].push_back(bands[k][i]);
    }
    std::sort(contours[k].begin(), contours[k].end());
  }
  return contours;
}

}  // namespace bouquet
