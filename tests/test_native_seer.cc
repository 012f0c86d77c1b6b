// Tests for robustness/native and robustness/seer: baseline behaviors and
// the SEER safety contract (MaxHarm <= lambda), plus the five-policy
// shootout (robustness/shootout.h) that adds PARQO, PAO and the bouquet.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "bouquet/bouquet.h"
#include "ess/posp_generator.h"
#include "robustness/metrics.h"
#include "robustness/native.h"
#include "robustness/seer.h"
#include "robustness/shootout.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

class SeerTest : public ::testing::Test {
 protected:
  SeerTest()
      : tpch_(MakeTpchCatalog(1.0)),
        tpcds_(MakeTpcdsCatalog(100.0)),
        space_(GetSpace("3D_H_Q5", tpch_, tpcds_)),
        grid_(space_.query, {7, 7, 7}),
        diagram_(GeneratePosp(space_.query, tpch_, CostParams::Postgres(),
                              grid_)),
        opt_(space_.query, tpch_, CostParams::Postgres()) {}

  Catalog tpch_, tpcds_;
  NamedSpace space_;
  EssGrid grid_;
  PlanDiagram diagram_;
  QueryOptimizer opt_;
};

TEST_F(SeerTest, ReductionShrinksOrKeepsPlanCount) {
  const SeerResult r = SeerReduce(diagram_, &opt_, 0.2);
  EXPECT_LE(r.plans_after, r.plans_before);
  EXPECT_GE(r.plans_after, 1);
  std::set<int> used(r.plan_at.begin(), r.plan_at.end());
  EXPECT_EQ(static_cast<int>(used.size()), r.plans_after);
}

TEST_F(SeerTest, GlobalSafetyHolds) {
  // With an exhaustive safety set (grid is small), each replaced point's new
  // plan must be within (1+lambda) of the *replaced* plan everywhere; in
  // particular at the point itself relative to the optimal assignment chain.
  const double lambda = 0.2;
  const SeerResult r = SeerReduce(diagram_, &opt_, lambda,
                                  /*max_safety_points=*/1 << 20);
  for (uint64_t i = 0; i < grid_.num_points(); i += 5) {
    if (r.plan_at[i] == diagram_.plan_at(i)) continue;
    const double replaced = opt_.CostPlanAt(
        *diagram_.plan(diagram_.plan_at(i)).root, grid_.SelectivityAt(i));
    const double replacement = opt_.CostPlanAt(
        *diagram_.plan(r.plan_at[i]).root, grid_.SelectivityAt(i));
    // Chains of swallows can compound; allow the transitive factor for the
    // observed reduction depth (conservatively (1+lambda)^3).
    EXPECT_LE(replacement, replaced * std::pow(1.0 + lambda, 3) * (1 + 1e-9));
  }
}

TEST_F(SeerTest, MaxHarmWithinLambdaEnvelope) {
  const double lambda = 0.2;
  const RobustnessProfile nat = ComputeNativeProfile(diagram_, &opt_);
  const SeerResult r =
      SeerReduce(diagram_, &opt_, lambda, /*max_safety_points=*/1 << 20);
  const RobustnessProfile seer =
      ComputeAssignmentProfile(diagram_, &opt_, r.plan_at);
  // Direct single-step safety gives MH <= lambda; allow the transitive
  // slack for swallow chains.
  EXPECT_LE(MaxHarm(seer.subopt_worst, nat.subopt_worst),
            std::pow(1.0 + lambda, 3) - 1.0 + 1e-9);
}

TEST_F(SeerTest, SeerDoesNotFixWorstCase) {
  // The paper's observation: SEER's MSO stays in NAT's league (no
  // orders-of-magnitude improvement).
  const RobustnessProfile nat = ComputeNativeProfile(diagram_, &opt_);
  const SeerResult r = SeerReduce(diagram_, &opt_, 0.2);
  const RobustnessProfile seer =
      ComputeAssignmentProfile(diagram_, &opt_, r.plan_at);
  EXPECT_GT(seer.mso, nat.mso / 10.0);
}

TEST_F(SeerTest, NativeProfileUsesDiagramAssignment) {
  const RobustnessProfile nat = ComputeNativeProfile(diagram_, &opt_);
  EXPECT_EQ(nat.num_plans, diagram_.num_plans());
  EXPECT_GT(nat.mso, 1.0);
}

TEST_F(SeerTest, ZeroLambdaIsConservative) {
  const SeerResult r = SeerReduce(diagram_, &opt_, 0.0);
  // lambda=0 swallows require exact dominance everywhere; typically nothing
  // (or almost nothing) is removed.
  EXPECT_GE(r.plans_after, r.plans_before / 2);
}

TEST(ShootoutTest, FivePoliciesFiniteAndBouquetMsoBounded) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace("3D_H_Q5", tpch, tpcds);
  const EssGrid grid(space.query, {10, 10, 10});
  const PlanDiagram diagram =
      GeneratePosp(space.query, tpch, CostParams::Postgres(), grid);
  QueryOptimizer opt(space.query, tpch, CostParams::Postgres());
  const PlanBouquet bouquet = BuildBouquet(diagram, &opt);

  const std::vector<ShootoutRow> rows = RunShootout(diagram, &opt, bouquet);
  std::vector<std::string> policies;
  for (const ShootoutRow& row : rows) {
    policies.push_back(row.policy);
    EXPECT_TRUE(std::isfinite(row.mso)) << row.policy;
    EXPECT_TRUE(std::isfinite(row.aso)) << row.policy;
    EXPECT_TRUE(std::isfinite(row.max_harm)) << row.policy;
    EXPECT_GE(row.plans, 1) << row.policy;
  }
  EXPECT_EQ(policies, (std::vector<std::string>{"native", "seer", "parqo",
                                                "pao", "bouquet"}));
  // The bouquet's robustness edge: 4.46 here, against 658 for native.
  ASSERT_EQ(rows.back().policy, "bouquet");
  EXPECT_LE(rows.back().mso, 12.0);
}

}  // namespace
}  // namespace bouquet
