// PARQO-style penalty-aware robust plan selection (after Xiu et al.,
// "PARQO: Penalty-Aware Robust Query Optimization", 2024).
//
// PARQO keeps the classical estimate-then-execute discipline but replaces
// "pick the plan that is optimal at the estimate q_e" with "pick the plan
// that minimizes *expected penalty* over an uncertainty neighborhood of
// q_e": penalty(P, q) = cost_P(q) - PIC(q), weighted by a kernel that
// decays with distance from the estimate. The selected plan hedges against
// nearby estimation error but — unlike the bouquet — retains no runtime
// guarantee: a q_a outside the modeled neighborhood can still be arbitrarily
// sub-optimal, which is exactly what the shootout (robustness/shootout.h)
// quantifies via MSO/ASO/MaxHarm against native, SEER, PAO, and bouquet.
//
// This reimplements the published *contract* on our ESS machinery: the
// uncertainty neighborhood is a Chebyshev window in grid-index space (the
// grid is log-spaced, so a fixed index window is a fixed multiplicative
// selectivity window), candidates are the POSP plans appearing in the
// window, and the kernel is geometric decay in Chebyshev distance.

#ifndef BOUQUET_ROBUSTNESS_PARQO_H_
#define BOUQUET_ROBUSTNESS_PARQO_H_

#include <vector>

#include "ess/plan_diagram.h"
#include "optimizer/optimizer.h"

namespace bouquet {

struct ParqoOptions {
  /// Chebyshev half-width of the uncertainty window, in grid steps.
  int neighborhood = 2;
  /// Weight of a window point at Chebyshev distance d is decay^d.
  double decay = 0.5;
};

struct ParqoResult {
  std::vector<int> plan_at;  ///< per-q_e selected plan (diagram plan id)
  int distinct_plans = 0;
};

/// Selects, for every estimate location q_e, the penalty-minimizing plan
/// over the uncertainty window. Deterministic; uses `opt` for plan
/// recosting (single-threaded, like every optimizer consumer).
ParqoResult ParqoSelect(const PlanDiagram& diagram, QueryOptimizer* opt,
                        const ParqoOptions& options = {});

}  // namespace bouquet

#endif  // BOUQUET_ROBUSTNESS_PARQO_H_
