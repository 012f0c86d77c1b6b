// Quickstart: the full plan-bouquet pipeline on the paper's 1D example
// query EQ (Figure 1) — POSP generation, PIC, isocost contours, bouquet
// identification, and a simulated robust execution.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "bouquet/bounds.h"
#include "bouquet/bouquet.h"
#include "bouquet/simulator.h"
#include "common/str_util.h"
#include "ess/pic.h"
#include "ess/posp_generator.h"
#include "robustness/native.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

int main() {
  using namespace bouquet;

  // 1. Catalog metadata at TPC-H scale factor 1 (the paper's 1GB setup).
  const Catalog catalog = MakeTpchCatalog(1.0);

  // 2. The example query EQ: part x lineitem x orders, with an error-prone
  //    selection on p_retailprice (a 1D selectivity space).
  const QuerySpec query = MakeEqQuery(catalog);
  const Status valid = query.Validate(catalog);
  if (!valid.ok()) {
    std::printf("query invalid: %s\n", valid.ToString().c_str());
    return 1;
  }

  // 3. Generate the POSP by optimizing at every grid point (selectivity
  //    injection under the hood).
  const EssGrid grid = EssGrid::WithDefaultResolution(query);
  QueryOptimizer opt(query, catalog, CostParams::Postgres());
  PospStats stats;
  const PlanDiagram diagram = GeneratePosp(query, catalog,
                                           CostParams::Postgres(), grid,
                                           PospOptions{}, &stats);
  std::printf("POSP: %d plans over %llu grid points (%lld optimizer calls)\n",
              diagram.num_plans(),
              static_cast<unsigned long long>(grid.num_points()),
              stats.dp_calls);
  std::printf("PIC: Cmin=%s Cmax=%s monotone=%s\n",
              FormatSci(diagram.Cmin()).c_str(),
              FormatSci(diagram.Cmax()).c_str(),
              IsPicMonotone(diagram) ? "yes" : "NO");

  // 4. Identify the plan bouquet (isocost ratio 2, anorexic lambda 20%).
  const PlanBouquet bouquet = BuildBouquet(diagram, &opt);
  std::printf("Bouquet: %d plans across %zu isocost contours, rho=%d\n",
              bouquet.cardinality(), bouquet.contours.size(), bouquet.rho());
  std::printf("MSO guarantee: %.1f (Theorem 1/3 with lambda)\n",
              MultiDMsoBound(bouquet.params.ratio, bouquet.rho(),
                             bouquet.params.lambda));

  // 5. Simulate a robust execution at an "actual" selectivity of ~5%.
  GridPoint qa_pt(1, grid.AxisFloor(0, 0.05));
  const uint64_t qa = grid.LinearIndex(qa_pt);
  BouquetSimulator sim(bouquet, diagram, &opt);
  const SimResult run = sim.RunBasic(qa);
  std::printf("\nExecution at qa = %s:\n",
              FormatPct(grid.axis(0)[qa_pt[0]]).c_str());
  for (const auto& step : run.steps) {
    std::printf("  contour %d: plan P%d budget %-10s charged %-10s %s\n",
                step.contour + 1, step.plan_id,
                FormatSci(step.budget).c_str(),
                FormatSci(step.charged).c_str(),
                step.completed ? "-> completed" : "(exhausted)");
  }
  std::printf("Total cost %s vs optimal %s  =>  sub-optimality %.2f\n",
              FormatSci(run.total_cost).c_str(),
              FormatSci(diagram.cost_at(qa)).c_str(), sim.SubOpt(run, qa));

  // 6. Contrast with the native optimizer's worst case over the whole space.
  const RobustnessProfile nat = ComputeNativeProfile(diagram, &opt);
  std::printf("\nNative optimizer: MSO=%.1f ASO=%.2f\n", nat.mso, nat.aso);
  return 0;
}
