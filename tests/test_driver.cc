// Tests for bouquet/driver: real-data bouquet execution (the Table 3
// machinery) — correctness of results, budget compliance, selectivity
// learning, and basic-vs-optimized behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "bouquet/driver.h"
#include "ess/posp_generator.h"
#include "golden_digest.h"
#include "storage/buffer_manager.h"
#include "storage/paged_table.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchDataOptions opts;
    opts.mini_scale = 0.2;  // lineitem ~12000 rows
    MakeTpchDatabase(&db_, opts);
    SyncTpchCatalog(db_, &catalog_);
    query_ = Make2DHQ8a(catalog_);
    // True location q_a ~ (33.7%, 45.6%) as in the paper's Section 6.7.
    achieved_ = BindSelectionConstants(&query_, catalog_, {0.337, 0.456});
    ASSERT_TRUE(query_.Validate(catalog_).ok());
    opt_ = std::make_unique<QueryOptimizer>(query_, catalog_,
                                            CostParams::Postgres());
    grid_ = std::make_unique<EssGrid>(query_, std::vector<int>{16, 16});
    diagram_ = std::make_unique<PlanDiagram>(
        GeneratePosp(query_, catalog_, CostParams::Postgres(), *grid_));
    bouquet_ = std::make_unique<PlanBouquet>(
        BuildBouquet(*diagram_, opt_.get()));
  }

  int64_t TrueResultCount() {
    const Plan plan = opt_->OptimizeAt(achieved_);
    BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
    return driver.RunSinglePlan(*plan.root).rows.size();
  }

  Database db_;
  Catalog catalog_;
  QuerySpec query_;
  std::vector<double> achieved_;
  std::unique_ptr<QueryOptimizer> opt_;
  std::unique_ptr<EssGrid> grid_;
  std::unique_ptr<PlanDiagram> diagram_;
  std::unique_ptr<PlanBouquet> bouquet_;
};

TEST_F(DriverTest, BasicProducesCorrectResult) {
  const int64_t expected = TrueResultCount();
  ASSERT_GT(expected, 0);
  BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult res = driver.RunBasic();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(static_cast<int64_t>(res.rows.size()), expected);
  EXPECT_GE(res.num_executions, 1);
}

TEST_F(DriverTest, OptimizedProducesCorrectResult) {
  const int64_t expected = TrueResultCount();
  BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult res = driver.RunOptimized();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(static_cast<int64_t>(res.rows.size()), expected);
}

TEST_F(DriverTest, BasicBudgetsRespected) {
  BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult res = driver.RunBasic();
  for (const auto& step : res.steps) {
    if (!step.completed && std::isfinite(step.budget)) {
      // Aborted executions stop within a whisker of the budget.
      EXPECT_LE(step.charged, step.budget * 1.01 + 10.0);
    }
  }
}

TEST_F(DriverTest, BasicMultiplePartialExecutionsBeforeCompletion) {
  // q_a is large (33.7%, 45.6%), so the cheap early contours must fail
  // first — the hallmark of the bouquet discovery process.
  BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult res = driver.RunBasic();
  EXPECT_GE(res.num_executions, 3);
  EXPECT_GE(res.contours_crossed, 2);
}

TEST_F(DriverTest, OptimizedUsesSpillsAndLearns) {
  BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult res = driver.RunOptimized();
  bool any_spill = false;
  for (const auto& step : res.steps) any_spill |= step.spilled;
  EXPECT_TRUE(any_spill);
  // The final step is a completed generic execution.
  EXPECT_TRUE(res.steps.back().completed);
  EXPECT_FALSE(res.steps.back().spilled);
}

TEST_F(DriverTest, RepeatableExecutionSequence) {
  BouquetDriver d1(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult a = d1.RunBasic();
  BouquetDriver d2(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult b = d2.RunBasic();
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].plan_signature, b.steps[i].plan_signature);
    EXPECT_EQ(a.steps[i].contour, b.steps[i].contour);
  }
}

TEST_F(DriverTest, SubOptimalityComparableToNat) {
  // NAT with a badly wrong estimate (the paper's AVI scenario) vs BOU.
  const DimVector bad_estimate = {1e-3, 1e-3};
  const Plan nat_plan = opt_->OptimizeAt(bad_estimate);
  BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult nat = driver.RunSinglePlan(*nat_plan.root);
  const DriverResult bou = driver.RunBasic();
  const Plan oracle_plan = opt_->OptimizeAt(achieved_);
  const DriverResult oracle = driver.RunSinglePlan(*oracle_plan.root);
  ASSERT_GT(oracle.total_cost_units, 0.0);
  const double nat_subopt = nat.total_cost_units / oracle.total_cost_units;
  const double bou_subopt = bou.total_cost_units / oracle.total_cost_units;
  // The bouquet's discovery overhead is bounded; NAT's error is not.
  EXPECT_LT(bou_subopt, 4.0 * 1.2 * bouquet_->rho() + 1.0);
  EXPECT_GT(nat_subopt, 1.0);
}

TEST(DriverJoinDimTest, LearnsJoinSelectivityFromData) {
  // A join error dimension: only 40% of lineitem rows reference an existing
  // part, so the true join selectivity is 0.4/|part| — below the PK-FK cap
  // the optimizer would assume. The optimized driver must discover it from
  // instrumented tuple counts and still return the correct result.
  Database db;
  TpchDataOptions opts;
  opts.mini_scale = 0.2;
  opts.part_match_fraction = 0.4;
  MakeTpchDatabase(&db, opts);
  Catalog catalog;
  SyncTpchCatalog(db, &catalog);

  QuerySpec q;
  q.name = "join_dim_query";
  q.tables = {"part", "lineitem", "orders"};
  q.joins = {JoinPredicate{"part", "p_partkey", "lineitem", "l_partkey",
                           -1.0},
             JoinPredicate{"lineitem", "l_orderkey", "orders", "o_orderkey",
                           -1.0}};
  ErrorDimension d;
  d.kind = DimKind::kJoin;
  d.predicate_index = 0;
  const double n_part = catalog.GetTable("part").stats.row_count;
  d.hi = 1.0 / n_part;
  d.lo = d.hi * 1e-3;
  d.label = "p_partkey=l_partkey";
  q.error_dims = {d};
  ASSERT_TRUE(q.Validate(catalog).ok());

  QueryOptimizer opt(q, catalog, CostParams::Postgres());
  const EssGrid grid(q, {24});
  const PlanDiagram diagram =
      GeneratePosp(q, catalog, CostParams::Postgres(), grid);
  const PlanBouquet bouquet = BuildBouquet(diagram, &opt);
  BouquetDriver driver(bouquet, diagram, &opt, &db);

  const DriverResult res = driver.RunOptimized();
  ASSERT_TRUE(res.completed);
  // Reference result via a single unbudgeted plan.
  const Plan oracle = opt.OptimizeAt({0.4 / n_part});
  const DriverResult ref = driver.RunSinglePlan(*oracle.root);
  EXPECT_EQ(res.rows.size(), ref.rows.size());
  // The discovered join selectivity is a lower bound on the truth and, once
  // the error node completed, close to it.
  ASSERT_EQ(res.discovered_selectivities.size(), 1u);
  const double truth = 0.4 / n_part;
  EXPECT_LE(res.discovered_selectivities[0], truth * 1.05);
  EXPECT_GE(res.discovered_selectivities[0], truth * 0.2);
}

TEST_F(DriverTest, RunSinglePlanEmitsStepAndIdentity) {
  // Regression: RunSinglePlan used to return with final_plan == -1, an
  // empty signature, and no DriverStep at all, so NAT baselines vanished
  // from any aggregation over steps.
  const Plan plan = opt_->OptimizeAt(achieved_);
  BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult res = driver.RunSinglePlan(*plan.root);
  ASSERT_TRUE(res.completed);
  EXPECT_FALSE(res.final_plan_signature.empty());
  EXPECT_EQ(res.final_plan_signature, plan.signature);
  // The optimal plan at a grid-adjacent location is interned in the POSP
  // diagram iff its signature matches one of the diagram's plans; either
  // way final_plan must agree with FindPlan, not stay at a stale default.
  EXPECT_EQ(res.final_plan, diagram_->FindPlan(plan.signature));
  ASSERT_EQ(res.steps.size(), 1u);
  const DriverStep& step = res.steps.front();
  EXPECT_EQ(step.contour, -1);  // native run: no contour
  EXPECT_EQ(step.plan_signature, plan.signature);
  EXPECT_TRUE(step.completed);
  EXPECT_FALSE(std::isfinite(step.budget));
  EXPECT_GT(step.charged, 0.0);
  EXPECT_EQ(step.charged, res.total_cost_units);
}

TEST_F(DriverTest, FinalPlanSignatureSetOnCompletion) {
  BouquetDriver d1(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult basic = d1.RunBasic();
  ASSERT_TRUE(basic.completed);
  EXPECT_FALSE(basic.final_plan_signature.empty());
  EXPECT_EQ(basic.final_plan_signature, basic.steps.back().plan_signature);
  EXPECT_EQ(basic.final_plan, basic.steps.back().plan_id);

  BouquetDriver d2(*bouquet_, *diagram_, opt_.get(), &db_);
  const DriverResult optimized = d2.RunOptimized();
  ASSERT_TRUE(optimized.completed);
  // The optimized final execution may pick a plan outside the POSP, in
  // which case final_plan is the documented -1 sentinel — but the
  // signature identity must be recorded regardless.
  EXPECT_FALSE(optimized.final_plan_signature.empty());
  EXPECT_EQ(optimized.final_plan_signature,
            optimized.steps.back().plan_signature);
  if (optimized.final_plan >= 0) {
    EXPECT_EQ(diagram_->plan(optimized.final_plan).signature,
              optimized.final_plan_signature);
  } else {
    EXPECT_EQ(diagram_->FindPlan(optimized.final_plan_signature), -1);
  }
}

TEST_F(DriverTest, EmptyContourSafetyNet) {
  // Regression: a bouquet with no contours made RunBasic dereference
  // contours.back() — UB. The safety net must instead fall back to the
  // diagram's max-corner plan and still produce the correct result.
  PlanBouquet empty = *bouquet_;
  empty.contours.clear();
  BouquetDriver driver(empty, *diagram_, opt_.get(), &db_);
  const DriverResult res = driver.RunBasic();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.num_executions, 1);
  EXPECT_EQ(res.contours_crossed, 0);
  const uint64_t corner =
      diagram_->grid().LinearIndex(diagram_->grid().MaxCorner());
  EXPECT_EQ(res.final_plan, diagram_->plan_at(corner));
  EXPECT_FALSE(res.final_plan_signature.empty());
  ASSERT_EQ(res.steps.size(), 1u);
  EXPECT_FALSE(std::isfinite(res.steps.front().budget));
  EXPECT_EQ(static_cast<int64_t>(res.rows.size()), TrueResultCount());
}

TEST_F(DriverTest, AllBudgetsExceededFallsBackAndCountsContours) {
  // Shrink every contour budget below any plan's true cost: every budgeted
  // execution aborts and the safety net must finish the query. Regression:
  // the fallback used to leave contours_crossed at the index of the last
  // contour instead of recording that all of them were crossed.
  PlanBouquet starved = *bouquet_;
  for (BouquetContour& c : starved.contours) c.budget = 1.0;
  BouquetDriver driver(starved, *diagram_, opt_.get(), &db_);
  const DriverResult res = driver.RunBasic();
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.contours_crossed,
            static_cast<int>(starved.contours.size()));
  // One aborted execution per distinct plan per contour, plus the fallback.
  int aborted = 0;
  for (const DriverStep& s : res.steps) aborted += s.completed ? 0 : 1;
  EXPECT_EQ(aborted, res.num_executions - 1);
  const DriverStep& last = res.steps.back();
  EXPECT_TRUE(last.completed);
  EXPECT_FALSE(std::isfinite(last.budget));
  EXPECT_EQ(last.contour, static_cast<int>(starved.contours.size()));
  EXPECT_EQ(res.final_plan, last.plan_id);
  EXPECT_EQ(static_cast<int64_t>(res.rows.size()), TrueResultCount());
}

TEST_F(DriverTest, SmallSelectivityFinishesEarly) {
  // Rebind to a tiny q_a: the first contours should already complete.
  QuerySpec tiny = Make2DHQ8a(catalog_);
  BindSelectionConstants(&tiny, catalog_, {0.002, 0.002});
  QueryOptimizer opt(tiny, catalog_, CostParams::Postgres());
  const EssGrid grid(tiny, {16, 16});
  const PlanDiagram diagram =
      GeneratePosp(tiny, catalog_, CostParams::Postgres(), grid);
  const PlanBouquet bouquet = BuildBouquet(diagram, &opt);
  BouquetDriver driver(bouquet, diagram, &opt, &db_);
  const DriverResult res = driver.RunBasic();
  EXPECT_TRUE(res.completed);
  EXPECT_LE(res.contours_crossed, 2);
}


// Folds a run's DriverStep sequence into `g`: contour, plan, the charge's
// bit pattern, page reads and hits, spill and learned dim per step, then
// the run's totals.
void FoldDriverRun(const DriverResult& r, GoldenDigest* g) {
  g->Add(r.completed);
  g->Add(r.total_cost_units);
  g->Add(r.num_executions);
  g->Add(r.contours_crossed);
  g->Add(r.warm_contours_skipped);
  g->Add(r.final_plan);
  g->Add(static_cast<uint64_t>(r.steps.size()));
  for (const DriverStep& s : r.steps) {
    g->Add(s.contour);
    g->Add(s.plan_id);
    g->Add(s.charged);
    g->Add(s.page_reads);
    g->Add(s.page_hits);
    g->Add(s.completed);
    g->Add(s.spilled);
    g->Add(s.learned_dim);
  }
  for (double sel : r.discovered_selectivities) g->Add(sel);
}

// Golden fingerprint of the real-data climbs over paged storage. A sweep of
// bindings of a 2D and a 3D template runs the optimized climb cold and warm
// started at contour 1, and the basic climb, each from a cold buffer pool
// smaller than the data. The other driver tests check results and bounds;
// this pins the exact step sequences, so a refactor of the climb that
// changes a candidate order, a charge or a page access fails here.
TEST(DriverGoldenTest, PagedStepSequencesPinned) {
  // Declared before the storage so the directory goes after it closes.
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir{::testing::TempDir() + "/driver_golden_paged"};
  std::filesystem::remove_all(dir.path);
  Catalog catalog;
  storage::StorageManager sm(storage::StorageOptions{
      dir.path, 24, storage::EvictionPolicyKind::k2Q});
  {
    Database mem;
    TpchDataOptions opts;
    opts.mini_scale = 0.1;
    MakeTpchDatabase(&mem, opts);
    SyncTpchCatalog(mem, &catalog);
    for (const char* t : {"region", "nation", "supplier", "customer", "part",
                          "orders", "lineitem"}) {
      ASSERT_TRUE(sm.ImportTable(mem.table(t)).ok()) << t;
    }
  }
  Database db;
  db.AttachStorage(&sm);

  GoldenDigest g;
  struct Sweep {
    QuerySpec tmpl;
    std::vector<int> res;
    int strata;
  };
  for (const Sweep& sw : {Sweep{Make2DHQ8a(catalog), {12, 12}, 6},
                          Sweep{Make3DHQ5b(catalog), {6, 6, 6}, 3}}) {
    QueryOptimizer compile_opt(sw.tmpl, catalog, CostParams::Postgres());
    const EssGrid grid(sw.tmpl, sw.res);
    const PlanDiagram diagram =
        GeneratePosp(sw.tmpl, catalog, CostParams::Postgres(), grid);
    const PlanBouquet bouquet = BuildBouquet(diagram, &compile_opt);
    const int dims = sw.tmpl.NumDims();
    int cells = 1;
    for (int d = 0; d < dims; ++d) cells *= sw.strata;
    for (int cell = 0; cell < cells; ++cell) {
      // Stratum centres on a log scale over [0.005, 1].
      std::vector<double> target;
      for (int d = 0, rest = cell; d < dims; ++d, rest /= sw.strata) {
        const double u = (rest % sw.strata + 0.5) / sw.strata;
        target.push_back(0.005 * std::pow(1.0 / 0.005, u));
      }
      QuerySpec q = sw.tmpl;
      BindSelectionConstants(&q, catalog, target);
      QueryOptimizer opt(q, catalog, CostParams::Postgres());
      for (int warm : {0, 1}) {
        BouquetDriver driver(bouquet, diagram, &opt, &db);
        driver.SetWarmStart(warm);
        sm.buffer()->ResetForTest();
        FoldDriverRun(driver.RunOptimized(), &g);
      }
      BouquetDriver driver(bouquet, diagram, &opt, &db);
      sm.buffer()->ResetForTest();
      FoldDriverRun(driver.RunBasic(), &g);
    }
  }
  EXPECT_EQ(g.value(), 0xdc0704d0154793e8ULL);
}

}  // namespace
}  // namespace bouquet
