#include "feedback/shrunken_box.h"

#include <algorithm>
#include <cmath>

namespace bouquet {

bool ShrunkenBox(const QuerySpec& query, const TemplateFeedback& fb,
                 EssBox* box) {
  if (box != nullptr) {
    box->lo.clear();
    box->hi.clear();
  }
  if (fb.observations < kShrinkMinObservations) return false;
  if (fb.support.size() != static_cast<size_t>(query.NumDims())) return false;
  EssBox out;
  out.lo.resize(fb.support.size());
  out.hi.resize(fb.support.size());
  bool any_shrunk = false;
  for (size_t d = 0; d < fb.support.size(); ++d) {
    const ErrorDimension& dim = query.error_dims[d];
    double lo = fb.support[d].lo / kShrinkGuardBand;
    double hi = fb.support[d].hi * kShrinkGuardBand;
    if (!std::isfinite(lo) || !std::isfinite(hi) || lo <= 0.0 || hi < lo) {
      return false;
    }
    lo = std::max(lo, dim.lo);
    hi = std::min(hi, dim.hi);
    if (hi <= lo) {  // degenerate after clamping: keep the declared range
      lo = dim.lo;
      hi = dim.hi;
    }
    out.lo[d] = lo;
    out.hi[d] = hi;
    if (lo > dim.lo * (1.0 + 1e-12) || hi < dim.hi * (1.0 - 1e-12)) {
      any_shrunk = true;
    }
  }
  if (!any_shrunk) return false;
  if (box != nullptr) *box = std::move(out);
  return true;
}

std::vector<int> ShrunkenResolutions(const QuerySpec& query,
                                     const EssBox& box,
                                     const std::vector<int>& resolutions) {
  std::vector<int> out = resolutions;
  for (size_t d = 0; d < out.size() && d < box.lo.size(); ++d) {
    const ErrorDimension& dim = query.error_dims[d];
    const double full = std::log(dim.hi / dim.lo);
    const double shrunk = std::log(box.hi[d] / box.lo[d]);
    if (!(full > 0.0) || !(shrunk > 0.0)) {
      out[d] = kShrinkMinResolution;
      continue;
    }
    const double ratio = std::min(1.0, shrunk / full);
    out[d] = std::max(kShrinkMinResolution,
                      static_cast<int>(std::ceil(resolutions[d] * ratio)));
  }
  return out;
}

}  // namespace bouquet
