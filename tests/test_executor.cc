// Tests for executor/: operator correctness against a naive reference
// evaluation, cost-limited abort, instrumentation counters, and spilled
// subtree execution.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "executor/builder.h"
#include "optimizer/optimizer.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

// Naive reference: count of part x lineitem x orders rows satisfying the
// bound filters, computed by brute hash lookups.
int64_t ReferenceCount(const Database& db, const QuerySpec& q) {
  const DataTable& part = db.table("part");
  const DataTable& lineitem = db.table("lineitem");
  const DataTable& orders = db.table("orders");

  auto filter_ok = [&](const DataTable& t, int64_t row) {
    for (const auto& f : q.filters) {
      if (f.table != t.name()) continue;
      const int64_t v = t.value(t.ColumnIndex(f.column), row);
      bool ok = true;
      switch (f.op) {
        case CompareOp::kLess: ok = v < f.constant; break;
        case CompareOp::kLessEqual: ok = v <= f.constant; break;
        case CompareOp::kGreater: ok = v > f.constant; break;
        case CompareOp::kGreaterEqual: ok = v >= f.constant; break;
        case CompareOp::kEqual: ok = v == f.constant; break;
      }
      if (!ok) return false;
    }
    return true;
  };

  std::unordered_map<int64_t, int64_t> part_pass;  // partkey -> multiplicity
  const int pk = part.ColumnIndex("p_partkey");
  for (int64_t r = 0; r < part.num_rows(); ++r) {
    if (filter_ok(part, r)) part_pass[part.value(pk, r)]++;
  }
  std::unordered_map<int64_t, int64_t> order_pass;
  const int ok_col = orders.ColumnIndex("o_orderkey");
  for (int64_t r = 0; r < orders.num_rows(); ++r) {
    if (filter_ok(orders, r)) order_pass[orders.value(ok_col, r)]++;
  }
  int64_t count = 0;
  const int lpk = lineitem.ColumnIndex("l_partkey");
  const int lok = lineitem.ColumnIndex("l_orderkey");
  for (int64_t r = 0; r < lineitem.num_rows(); ++r) {
    auto itp = part_pass.find(lineitem.value(lpk, r));
    if (itp == part_pass.end()) continue;
    auto ito = order_pass.find(lineitem.value(lok, r));
    if (ito == order_pass.end()) continue;
    count += itp->second * ito->second;
  }
  return count;
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchDataOptions opts;
    opts.mini_scale = 0.1;  // lineitem ~6000 rows
    MakeTpchDatabase(&db_, opts);
    SyncTpchCatalog(db_, &catalog_);
    query_ = Make2DHQ8a(catalog_);
    BindSelectionConstants(&query_, catalog_, {0.3, 0.4});
    ASSERT_TRUE(query_.Validate(catalog_).ok());
    opt_ = std::make_unique<QueryOptimizer>(query_, catalog_,
                                            CostParams::Postgres());
  }

  ExecContext MakeContext() {
    ExecContext ctx;
    ctx.query = &query_;
    ctx.catalog = &catalog_;
    ctx.db = &db_;
    ctx.cost_model = &opt_->cost_model();
    return ctx;
  }

  Database db_;
  Catalog catalog_;
  QuerySpec query_;
  std::unique_ptr<QueryOptimizer> opt_;
};

TEST_F(ExecutorTest, PlanMatchesReferenceCount) {
  const int64_t expected = ReferenceCount(db_, query_);
  ASSERT_GT(expected, 0);
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  ExecContext ctx = MakeContext();
  std::vector<Row> rows;
  const ExecutionOutcome out = ExecutePlan(
      *plan.root, &ctx, std::numeric_limits<double>::infinity(), &rows);
  EXPECT_EQ(out.status, ExecResult::kDone);
  EXPECT_EQ(out.rows_emitted, expected);
  EXPECT_EQ(static_cast<int64_t>(rows.size()), expected);
}

TEST_F(ExecutorTest, AllPlanShapesAgree) {
  // Different injected selectivities force different physical plans; all
  // must return identical cardinalities on the same data.
  const int64_t expected = ReferenceCount(db_, query_);
  std::set<std::string> signatures;
  for (double s1 : {1e-3, 0.05, 1.0}) {
    for (double s2 : {1e-3, 0.05, 1.0}) {
      const Plan plan = opt_->OptimizeAt({s1, s2});
      signatures.insert(plan.signature);
      ExecContext ctx = MakeContext();
      const ExecutionOutcome out = ExecutePlan(
          *plan.root, &ctx, std::numeric_limits<double>::infinity(),
          nullptr);
      EXPECT_EQ(out.status, ExecResult::kDone) << plan.signature;
      EXPECT_EQ(out.rows_emitted, expected) << plan.signature;
    }
  }
  // The sweep must actually have exercised multiple plan shapes.
  EXPECT_GE(signatures.size(), 2u);
}

TEST_F(ExecutorTest, BudgetAborts) {
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  ExecContext ctx = MakeContext();
  const ExecutionOutcome out = ExecutePlan(*plan.root, &ctx, 1.0, nullptr);
  EXPECT_EQ(out.status, ExecResult::kAborted);
  EXPECT_GT(out.cost_charged, 1.0);       // tripped just over the budget
  EXPECT_LT(out.cost_charged, 100.0);     // but did not run away
}

TEST_F(ExecutorTest, ChargesApproximateEstimatedCost) {
  // Executing the optimal plan at (0.3, 0.4) with unlimited budget should
  // charge within a small factor of the cost model's estimate at the true
  // location (the meter uses the same constants).
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  const double est = opt_->CostPlanAt(*plan.root, {0.3, 0.4});
  ExecContext ctx = MakeContext();
  const ExecutionOutcome out = ExecutePlan(
      *plan.root, &ctx, std::numeric_limits<double>::infinity(), nullptr);
  EXPECT_EQ(out.status, ExecResult::kDone);
  EXPECT_GT(out.cost_charged, est * 0.1);
  EXPECT_LT(out.cost_charged, est * 10.0);
}

TEST_F(ExecutorTest, InstrumentationCountsScanOutput) {
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  ExecContext ctx = MakeContext();
  ExecutePlan(*plan.root, &ctx, std::numeric_limits<double>::infinity(),
              nullptr);
  // The part scan node must report tuples_out == filtered part count.
  const ErrorDimension& dim = query_.error_dims[0];  // p_retailprice
  const PlanNode* part_node =
      FindPredicateNode(*plan.root, false, dim.predicate_index);
  ASSERT_NE(part_node, nullptr);
  const NodeCounters* nc = ctx.instr.Find(part_node);
  ASSERT_NE(nc, nullptr);

  const DataTable& part = db_.table("part");
  const auto& f = query_.filters[dim.predicate_index];
  int64_t expected = 0;
  const int col = part.ColumnIndex(f.column);
  for (int64_t r = 0; r < part.num_rows(); ++r) {
    expected += part.value(col, r) < f.constant;
  }
  if (part_node->is_scan()) {
    EXPECT_EQ(nc->tuples_out, expected);
    EXPECT_TRUE(nc->finished);
  } else {
    // Predicate evaluated at a join (index-NL inner): tuple count reflects
    // join output, just assert it ran.
    EXPECT_GE(nc->tuples_out, 0);
  }
}

TEST_F(ExecutorTest, SpilledSubtreeRunsOnlyErrorNode) {
  const Plan plan = opt_->OptimizeAt({1e-3, 1e-3});
  const ErrorDimension& dim = query_.error_dims[0];
  const PlanNode* spill =
      FindPredicateNode(*plan.root, false, dim.predicate_index);
  ASSERT_NE(spill, nullptr);
  ExecContext ctx = MakeContext();
  const ExecutionOutcome out = ExecuteSpilled(
      *spill, &ctx, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out.status, ExecResult::kDone);
  // The spilled run must be cheaper than the full plan's execution.
  ExecContext ctx2 = MakeContext();
  const ExecutionOutcome full = ExecutePlan(
      *plan.root, &ctx2, std::numeric_limits<double>::infinity(), nullptr);
  EXPECT_LE(out.cost_charged, full.cost_charged);
}

TEST_F(ExecutorTest, AbstractPredicateRefusesExecution) {
  QuerySpec abstract = Make2DHQ8a(catalog_);  // constants unbound
  QueryOptimizer opt(abstract, catalog_, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({0.1, 0.1});
  ExecContext ctx;
  ctx.query = &abstract;
  ctx.catalog = &catalog_;
  ctx.db = &db_;
  ctx.cost_model = &opt.cost_model();
  auto built = BuildExecutor(*plan.root, &ctx);
  EXPECT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorTest, EmptyResultAtImpossibleFilter) {
  QuerySpec q = Make2DHQ8a(catalog_);
  // Constants below every value: zero selectivity.
  q.filters[0].constant = INT64_MIN + 1;
  q.filters[1].constant = INT64_MIN + 1;
  QueryOptimizer opt(q, catalog_, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({1e-3, 1e-3});
  ExecContext ctx;
  ctx.query = &q;
  ctx.catalog = &catalog_;
  ctx.db = &db_;
  ctx.cost_model = &opt.cost_model();
  std::vector<Row> rows;
  const ExecutionOutcome out = ExecutePlan(
      *plan.root, &ctx, std::numeric_limits<double>::infinity(), &rows);
  EXPECT_EQ(out.status, ExecResult::kDone);
  EXPECT_EQ(out.rows_emitted, 0);
}

TEST_F(ExecutorTest, DrainOperatorCapsMaterialization) {
  const Plan plan = opt_->OptimizeAt({0.3, 0.4});
  ExecContext ctx = MakeContext();
  ctx.meter.Reset();
  auto built = BuildExecutor(*plan.root, &ctx);
  ASSERT_TRUE(built.ok());
  std::vector<Row> rows;
  int64_t emitted = 0;
  const ExecResult st = DrainOperator(built->get(), &rows, &emitted, 5);
  EXPECT_EQ(st, ExecResult::kDone);
  EXPECT_LE(rows.size(), 5u);
  EXPECT_EQ(emitted, ReferenceCount(db_, query_));
}

// ---------------------------------------------------------------------------
// Fixed-point charges (exec_context.h)
// ---------------------------------------------------------------------------

TEST(FixedCostTest, ConvertsZeroAndOneQuantum) {
  EXPECT_EQ(FixedFromCost(0.0), 0);
  EXPECT_EQ(FixedFromCost(-0.0), 0);
  EXPECT_EQ(FixedFromCost(0x1p-30), 1);
  EXPECT_EQ(FixedFromCost(std::nextafter(0x1p-30, 0.0)), 0);  // rounds down
  EXPECT_EQ(FixedFromCost(1.0), FixedCost{1} << 30);
  EXPECT_EQ(CostFromFixed(1), 0x1p-30);
  // Rounding down keeps the converted value at or below the double, so a
  // run within a converted budget is within the double budget too.
  for (const double c : {0.01, 0.0025, 4.0 + 1e-7, 1234.5678}) {
    EXPECT_LE(CostFromFixed(FixedFromCost(c)), c) << c;
    EXPECT_GT(CostFromFixed(FixedFromCost(c) + 1), c) << c;
  }
}

TEST(FixedCostTest, RangeEdgeClampsAndInfinityIsUnbounded) {
  // 2^33 cost units are 2^63 quanta: the first value past the range.
  const double edge = 0x1p33;
  EXPECT_EQ(FixedFromCost(std::nextafter(edge, 0.0)),
            std::numeric_limits<FixedCost>::max() - 1023);
  EXPECT_EQ(FixedFromCost(edge), kMaxFiniteCost);
  EXPECT_EQ(FixedFromCost(1e300), kMaxFiniteCost);
  EXPECT_EQ(FixedFromCost(std::numeric_limits<double>::infinity()),
            kUnboundedCost);
  // Exact below 2^23 units (2^53 quanta).
  EXPECT_EQ(CostFromFixed(FixedFromCost(0x1p23 - 0x1p-30)),
            0x1p23 - 0x1p-30);
}

TEST(FixedCostDeathTest, NanAndNegativeFailLoudly) {
  EXPECT_DEATH(FixedFromCost(std::numeric_limits<double>::quiet_NaN()),
               "not a non-negative cost");
  EXPECT_DEATH(FixedFromCost(-std::numeric_limits<double>::infinity()),
               "not a non-negative cost");
  EXPECT_DEATH(FixedFromCost(-0x1p-30), "not a non-negative cost");
}

TEST(FixedCostTest, AccumulatorSaturates) {
  EXPECT_EQ(SatAdd(kMaxFiniteCost, 1), kUnboundedCost);
  EXPECT_EQ(SatAdd(kUnboundedCost, kUnboundedCost), kUnboundedCost);
  EXPECT_EQ(SatMul(FixedCost{1} << 40, int64_t{1} << 30), kUnboundedCost);
  EXPECT_EQ(SatMul(7, 6), 42);

  CostMeter finite;
  finite.Reset();
  finite.set_budget(1e300);  // clamps to kMaxFiniteCost
  EXPECT_TRUE(finite.Charge(kMaxFiniteCost));
  EXPECT_FALSE(finite.Charge(kMaxFiniteCost));  // saturates, then trips
  EXPECT_EQ(finite.charged(), kUnboundedCost);
  EXPECT_TRUE(finite.exhausted());

  CostMeter unbounded;
  unbounded.Reset();
  EXPECT_TRUE(unbounded.unbounded());
  EXPECT_TRUE(unbounded.Charge(kMaxFiniteCost));
  EXPECT_TRUE(unbounded.Charge(kMaxFiniteCost));  // saturated, never trips
  EXPECT_EQ(unbounded.charged(), kUnboundedCost);
  EXPECT_FALSE(unbounded.exhausted());
}

}  // namespace
}  // namespace bouquet
