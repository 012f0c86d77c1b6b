#include "robustness/shootout.h"

#include "bouquet/simulator.h"
#include "robustness/metrics.h"
#include "robustness/native.h"
#include "robustness/pao.h"
#include "robustness/parqo.h"
#include "robustness/seer.h"

namespace bouquet {

std::vector<ShootoutRow> RunShootout(const PlanDiagram& diagram,
                                     QueryOptimizer* opt,
                                     const PlanBouquet& bouquet) {
  std::vector<ShootoutRow> rows;
  const RobustnessProfile native = ComputeNativeProfile(diagram, opt);
  rows.push_back({"native", native.mso, native.aso,
                  MaxHarm(native.subopt_worst, native.subopt_worst),
                  native.num_plans});
  auto assigned = [&](const char* policy, const std::vector<int>& plan_at,
                      int plans) {
    const RobustnessProfile prof =
        ComputeAssignmentProfile(diagram, opt, plan_at);
    rows.push_back({policy, prof.mso, prof.aso,
                    MaxHarm(prof.subopt_worst, native.subopt_worst), plans});
  };
  const SeerResult seer = SeerReduce(diagram, opt, bouquet.params.lambda);
  assigned("seer", seer.plan_at, seer.plans_after);
  const ParqoResult parqo = ParqoSelect(diagram, opt);
  assigned("parqo", parqo.plan_at, parqo.distinct_plans);
  const PaoResult pao = PaoSelect(diagram, opt);
  assigned("pao", pao.plan_at, pao.distinct_plans);

  const BouquetSimulator sim(bouquet, diagram, opt);
  const BouquetProfile bq = ComputeBouquetProfile(sim, /*optimized=*/true);
  rows.push_back({"bouquet", bq.mso, bq.aso,
                  MaxHarm(bq.subopt, native.subopt_worst),
                  bouquet.cardinality()});
  return rows;
}

}  // namespace bouquet
