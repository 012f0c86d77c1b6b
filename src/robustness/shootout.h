// The robust-baseline shootout: MSO, ASO and MaxHarm of five policies on
// one compiled space — the native optimizer, SEER, PARQO (Xiu et al.), PAO
// (Trummer & Koch) and the optimized bouquet. MaxHarm is measured against
// the native optimizer's worst case at each q_a. bench_feedback prints the
// table, and test_native_seer checks it.

#ifndef BOUQUET_ROBUSTNESS_SHOOTOUT_H_
#define BOUQUET_ROBUSTNESS_SHOOTOUT_H_

#include <string>
#include <vector>

#include "bouquet/bouquet.h"
#include "ess/plan_diagram.h"
#include "optimizer/optimizer.h"

namespace bouquet {

struct ShootoutRow {
  std::string policy;  ///< native, seer, parqo, pao or bouquet
  double mso = 0.0;
  double aso = 0.0;
  double max_harm = 0.0;
  int plans = 0;  ///< distinct plans the policy uses
};

/// One row per policy, in the order above. `bouquet` must be built over
/// `diagram`; SEER's safety threshold is the bouquet's lambda.
std::vector<ShootoutRow> RunShootout(const PlanDiagram& diagram,
                                     QueryOptimizer* opt,
                                     const PlanBouquet& bouquet);

}  // namespace bouquet

#endif  // BOUQUET_ROBUSTNESS_SHOOTOUT_H_
