// ESS-box shrinking derived from feedback: the compile-time half of the
// feedback layer, and its only effect on execution.
//
// Once a template has enough recorded runs, the service compiles it over
// the observed selectivity support instead of the declared ranges: the
// support [lo, hi] is inflated by a multiplicative guard band, clamped into
// the declared range, and the per-dimension resolutions are scaled down
// proportionally to the shrunken log-range. The template cache key stays
// the ORIGINAL query's key (the signature encodes declared ranges), so a
// shrunken compile is an internal optimization, invisible to lookups. A
// request outside the box still completes: a simulated q_a snaps to the
// box's edge, and a real-data climb whose q_run leaves the box crosses the
// remaining contours and finishes with an unbudgeted execution.

#ifndef BOUQUET_FEEDBACK_SHRUNKEN_BOX_H_
#define BOUQUET_FEEDBACK_SHRUNKEN_BOX_H_

#include <cstdint>
#include <vector>

#include "feedback/feedback_store.h"
#include "optimizer/selectivity.h"
#include "query/query_spec.h"

namespace bouquet {

/// Recorded runs a template needs before its box shrinks.
inline constexpr uint64_t kShrinkMinObservations = 3;
/// Multiplicative inflation of the observed support:
/// [lo / kShrinkGuardBand, hi * kShrinkGuardBand], clamped into the
/// declared range.
inline constexpr double kShrinkGuardBand = 4.0;
/// Floor for shrunken per-dimension grid resolutions.
inline constexpr int kShrinkMinResolution = 4;

/// Shrunken per-dimension selectivity bounds for an EssGrid compile.
struct EssBox {
  DimVector lo;
  DimVector hi;
};

/// Computes the shrunken ESS box: observed support inflated by the guard
/// band and clamped into the declared [lo, hi]. Returns false (and leaves
/// *box empty) when feedback is unusable (fewer than
/// kShrinkMinObservations runs, a dimensionality mismatch, non-finite
/// support) or no dimension actually shrinks.
bool ShrunkenBox(const QuerySpec& query, const TemplateFeedback& fb,
                 EssBox* box);

/// Scales per-dimension resolutions down proportionally to the shrunken
/// log-range: res' = max(kShrinkMinResolution, ceil(res * logratio)). Keeps
/// the grid density (points per decade) roughly constant.
std::vector<int> ShrunkenResolutions(const QuerySpec& query,
                                     const EssBox& box,
                                     const std::vector<int>& resolutions);

}  // namespace bouquet

#endif  // BOUQUET_FEEDBACK_SHRUNKEN_BOX_H_
