// Tests for bouquet/simulator: completion guarantees, MSO bounds,
// optimized-mode behavior, and bounded cost-model error (Section 3.4).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "bouquet/bounds.h"
#include "bouquet/simulator.h"
#include "ess/posp_generator.h"
#include "golden_digest.h"
#include "robustness/metrics.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

NamedSpace FindSpace(const std::string& name, const Catalog& tpch,
                     const Catalog& tpcds) {
  if (name == "EQ") return {"EQ", "H", MakeEqQuery(tpch)};
  return GetSpace(name, tpch, tpcds);
}

struct Pipeline {
  Pipeline(const std::string& space_name, std::vector<int> res)
      : tpch(MakeTpchCatalog(1.0)),
        tpcds(MakeTpcdsCatalog(100.0)),
        space(FindSpace(space_name, tpch, tpcds)),
        grid(space.query, std::move(res)),
        diagram(GeneratePosp(space.query,
                             space.benchmark == "H" ? tpch : tpcds,
                             CostParams::Postgres(), grid)),
        opt(space.query, space.benchmark == "H" ? tpch : tpcds,
            CostParams::Postgres()),
        bouquet(BuildBouquet(diagram, &opt)) {}

  Catalog tpch, tpcds;
  NamedSpace space;
  EssGrid grid;
  PlanDiagram diagram;
  QueryOptimizer opt;
  PlanBouquet bouquet;
};

TEST(SimulatorTest, BasicCompletesEverywhereNoFallback) {
  Pipeline p("3D_H_Q5", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
    const SimResult run = sim.RunBasic(qa);
    EXPECT_TRUE(run.completed);
    EXPECT_FALSE(run.fallback_used) << "qa=" << qa;
    EXPECT_GE(sim.SubOpt(run, qa), 1.0 - 1e-9);
  }
}

TEST(SimulatorTest, OptimizedCompletesEverywhereNoFallback) {
  Pipeline p("3D_H_Q5", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
    const SimResult run = sim.RunOptimized(qa);
    EXPECT_TRUE(run.completed);
    EXPECT_FALSE(run.fallback_used) << "qa=" << qa;
  }
}

TEST(SimulatorTest, BasicMsoWithinTheoreticalBound) {
  Pipeline p("3D_DS_Q96", {8, 8, 8});
  // Use restart accounting (no continuation) to match the Theorem 3
  // analysis exactly.
  SimOptions opts;
  opts.continue_same_plan = false;
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt, opts);
  const double bound = MultiDMsoBound(2.0, p.bouquet.rho(), 0.2);
  for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
    const SimResult run = sim.RunBasic(qa);
    EXPECT_LE(sim.SubOpt(run, qa), bound * (1 + 1e-6)) << "qa=" << qa;
  }
}

TEST(SimulatorTest, ContinuationNeverWorseThanRestart) {
  Pipeline p("3D_H_Q7", {8, 8, 8});
  SimOptions restart;
  restart.continue_same_plan = false;
  BouquetSimulator sim_cont(p.bouquet, p.diagram, &p.opt);
  BouquetSimulator sim_rest(p.bouquet, p.diagram, &p.opt, restart);
  for (uint64_t qa = 0; qa < p.grid.num_points(); qa += 7) {
    const double cont = sim_cont.RunBasic(qa).total_cost;
    const double rest = sim_rest.RunBasic(qa).total_cost;
    EXPECT_LE(cont, rest * (1 + 1e-9)) << "qa=" << qa;
  }
}

TEST(SimulatorTest, OptimizedNoWorseOnAverage) {
  Pipeline p("5D_DS_Q19", {5, 5, 5, 5, 5});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  const BouquetProfile basic = ComputeBouquetProfile(sim, false);
  const BouquetProfile optimized = ComputeBouquetProfile(sim, true);
  EXPECT_FALSE(basic.any_fallback);
  EXPECT_FALSE(optimized.any_fallback);
  // The optimizations (first-quadrant pruning, early jumps) should pay off
  // in executions and not blow up ASO.
  EXPECT_LE(optimized.avg_executions, basic.avg_executions * 1.05);
  EXPECT_LE(optimized.aso, basic.aso * 1.5);
}

TEST(SimulatorTest, FirstQuadrantInvariantHolds) {
  // Section 5.2: the running location q_run must never overestimate the
  // actual location in any dimension, and must advance monotonically.
  Pipeline p("3D_H_Q5", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (uint64_t qa = 0; qa < p.grid.num_points(); qa += 3) {
    const GridPoint qa_pt = p.grid.PointAt(qa);
    const SimResult run = sim.RunOptimized(qa);
    ASSERT_EQ(run.qrun_trace.size(), run.steps.size());
    GridPoint prev(p.grid.dims(), 0);
    for (const GridPoint& qrun : run.qrun_trace) {
      EXPECT_TRUE(EssGrid::Dominates(qrun, qa_pt))
          << "q_run overtook q_a at qa=" << qa;
      EXPECT_TRUE(EssGrid::Dominates(prev, qrun))
          << "q_run regressed at qa=" << qa;
      prev = qrun;
    }
  }
}

TEST(SimulatorTest, QrunConvergesTowardQa) {
  // Discovery should actually move: for a far-corner q_a, the final q_run
  // must strictly dominate the origin.
  Pipeline p("3D_DS_Q96", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  const uint64_t qa = p.grid.num_points() - 1;
  const SimResult run = sim.RunOptimized(qa);
  ASSERT_TRUE(run.completed);
  ASSERT_FALSE(run.qrun_trace.empty());
  const GridPoint& last = run.qrun_trace.back();
  int total = 0;
  for (int d = 0; d < p.grid.dims(); ++d) total += last[d];
  EXPECT_GT(total, 0) << "no selectivity learning happened";
}

TEST(SimulatorTest, SubOptAtLeastOne) {
  Pipeline p("3D_DS_Q15", {6, 6, 6});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (uint64_t qa = 0; qa < p.grid.num_points(); qa += 11) {
    EXPECT_GE(sim.SubOpt(sim.RunBasic(qa), qa), 1.0 - 1e-9);
    EXPECT_GE(sim.SubOpt(sim.RunOptimized(qa), qa), 1.0 - 1e-9);
  }
}

TEST(SimulatorTest, StepLogsConsistent) {
  Pipeline p("3D_H_Q5", {8, 8, 8});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  const uint64_t qa = p.grid.num_points() - 1;  // max corner
  const SimResult run = sim.RunBasic(qa);
  ASSERT_TRUE(run.completed);
  double total = 0.0;
  for (const auto& s : run.steps) total += s.charged;
  EXPECT_NEAR(total, run.total_cost, total * 1e-9);
  EXPECT_EQ(run.steps.size(), static_cast<size_t>(run.num_executions));
  EXPECT_TRUE(run.steps.back().completed);
  for (size_t i = 0; i + 1 < run.steps.size(); ++i) {
    EXPECT_FALSE(run.steps[i].completed);
    EXPECT_LE(run.steps[i].contour, run.steps[i + 1].contour);
  }
}

TEST(SimulatorTest, CostMatrixMatchesRecost) {
  Pipeline p("3D_H_Q5", {6, 6, 6});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  for (int pid : p.bouquet.plan_ids) {
    for (uint64_t q = 0; q < p.grid.num_points(); q += 31) {
      const double direct =
          p.opt.CostPlanAt(*p.diagram.plan(pid).root, p.grid.SelectivityAt(q));
      EXPECT_DOUBLE_EQ(sim.EstimatedCost(pid, q), direct);
    }
  }
}

// The safe plan, found while the cost surfaces fill, is the one a separate
// scan over every (plan, point) finds: the least worst-case actual cost,
// ties to the plan listed first in the bouquet.
TEST(SimulatorTest, SafePlanMinimizesWorstActualCost) {
  Pipeline p("3D_H_Q7", {7, 7, 7});
  for (double delta : {0.0, 0.3}) {
    SimOptions opts;
    opts.model_error_delta = delta;
    BouquetSimulator sim(p.bouquet, p.diagram, &p.opt, opts);
    int want_plan = -1;
    double want_budget = std::numeric_limits<double>::infinity();
    for (int pid : p.bouquet.plan_ids) {
      double worst = 0.0;
      for (uint64_t q = 0; q < p.grid.num_points(); ++q) {
        worst = std::max(worst, sim.ActualCost(pid, q));
      }
      if (worst < want_budget) {
        want_budget = worst;
        want_plan = pid;
      }
    }
    EXPECT_EQ(sim.safe_plan(), want_plan) << "delta " << delta;
    EXPECT_EQ(sim.safe_budget(), want_budget) << "delta " << delta;
  }
}

// Section 3.4: bounded modeling error inflates the worst-case *guarantee*
// by at most (1+delta)^2.
class ModelErrorSweep : public ::testing::TestWithParam<double> {};

TEST_P(ModelErrorSweep, MsoInflationBounded) {
  const double delta = GetParam();
  Pipeline p("3D_DS_Q96", {7, 7, 7});
  SimOptions opts;
  opts.model_error_delta = delta;
  BouquetSimulator noisy(p.bouquet, p.diagram, &p.opt, opts);

  double mso_noisy = 0.0;
  for (uint64_t qa = 0; qa < p.grid.num_points(); ++qa) {
    mso_noisy = std::max(mso_noisy, noisy.SubOpt(noisy.RunBasic(qa), qa));
  }
  const double guarantee = MultiDMsoBound(2.0, p.bouquet.rho(), 0.2);
  EXPECT_LE(mso_noisy, guarantee * ModelErrorInflation(delta) * (1 + 1e-9))
      << "delta=" << delta;
}

INSTANTIATE_TEST_SUITE_P(Deltas, ModelErrorSweep,
                         ::testing::Values(0.1, 0.2, 0.4));

// Folds everything a run reports into `g`: per step the contour, plan,
// budget and charge bit patterns, completion and learned dim; the q_run
// trace; and the run's totals.
void FoldRun(const SimResult& r, GoldenDigest* g) {
  g->Add(r.completed);
  g->Add(r.fallback_used);
  g->Add(r.total_cost);
  g->Add(r.num_executions);
  g->Add(r.final_plan);
  g->Add(r.final_contour);
  g->Add(static_cast<uint64_t>(r.steps.size()));
  for (const SimStep& s : r.steps) {
    g->Add(s.contour);
    g->Add(s.plan_id);
    g->Add(s.budget);
    g->Add(s.charged);
    g->Add(s.completed);
    g->Add(s.learned_dim);
  }
  g->Add(static_cast<uint64_t>(r.qrun_trace.size()));
  for (const GridPoint& q : r.qrun_trace) {
    for (int c : q) g->Add(c);
  }
}

// Every climb entry point at every grid point: optimized, seeded (the seed
// overshoots q_a near the origin, so the clamp is exercised too) and basic.
uint64_t ClimbFingerprint(const EssGrid& grid, const BouquetSimulator& sim) {
  GoldenDigest g;
  for (uint64_t qa = 0; qa < grid.num_points(); ++qa) {
    FoldRun(sim.RunOptimized(qa), &g);
    GridPoint seed = grid.PointAt(qa);
    for (size_t d = 0; d < seed.size(); ++d) {
      seed[d] = (seed[d] + static_cast<int>(d)) / 2;
    }
    FoldRun(sim.RunOptimizedSeeded(qa, seed), &g);
    FoldRun(sim.RunBasic(qa), &g);
  }
  return g.value();
}

// Golden fingerprints of the exact climbs. The other tests check bounds and
// invariants only; these pin the step sequences, charges and q_run traces
// bit for bit, so a refactor of either climb that changes behaviour fails
// here even when every bound still holds.
TEST(SimulatorGoldenTest, EqClimbsPinned) {
  Pipeline p("EQ", {100});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  EXPECT_EQ(ClimbFingerprint(p.grid, sim), 0x8b9490f1839ee558ULL);
}

TEST(SimulatorGoldenTest, ThreeDimClimbsPinned) {
  Pipeline p("3D_H_Q5", {10, 10, 10});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  EXPECT_EQ(ClimbFingerprint(p.grid, sim), 0x7b72103681bfb23eULL);
}

TEST(SimulatorGoldenTest, FiveDimClimbsPinned) {
  Pipeline p("5D_H_Q7", {6, 6, 6, 6, 6});
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt);
  EXPECT_EQ(ClimbFingerprint(p.grid, sim), 0x9bd1a1f638b864feULL);
}

TEST(SimulatorGoldenTest, ModelErrorRestartClimbsPinned) {
  Pipeline p("3D_H_Q7", {7, 7, 7});
  SimOptions opts;
  opts.model_error_delta = 0.3;
  opts.continue_same_plan = false;
  BouquetSimulator sim(p.bouquet, p.diagram, &p.opt, opts);
  EXPECT_EQ(ClimbFingerprint(p.grid, sim), 0xf4da2baa6fa22096ULL);
}

}  // namespace
}  // namespace bouquet
