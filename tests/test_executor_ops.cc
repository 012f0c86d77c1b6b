// Operator-level executor tests using hand-built plan trees over a tiny
// controlled dataset: each physical operator is exercised directly and
// compared against hand-computed results (duplicates, residual predicates,
// empty inputs, budget behavior).

#include <gtest/gtest.h>

#include "executor/batch.h"
#include "executor/builder.h"
#include "optimizer/optimizer.h"

namespace bouquet {
namespace {

// Schema: r(k, v), s(k, w). Data engineered for duplicate join keys.
class OpsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DataTable r("r", {"k", "v"});
    r.AppendRow({1, 10});
    r.AppendRow({2, 20});
    r.AppendRow({2, 21});
    r.AppendRow({3, 30});
    r.AppendRow({5, 50});
    DataTable s("s", {"k", "w"});
    s.AppendRow({2, 200});
    s.AppendRow({2, 201});
    s.AppendRow({3, 300});
    s.AppendRow({4, 400});
    db_.AddTable(std::move(r));
    db_.AddTable(std::move(s));
    db_.SyncCatalog(&catalog_, 64.0);

    query_.name = "ops";
    query_.tables = {"r", "s"};
    query_.joins = {JoinPredicate{"r", "k", "s", "k", -1.0}};
    query_.filters = {
        SelectionPredicate{"r", "v", CompareOp::kLess, 1000, -1.0},
        SelectionPredicate{"s", "w", CompareOp::kGreaterEqual, 201, -1.0}};
    ASSERT_TRUE(query_.Validate(catalog_).ok());
    cm_ = std::make_unique<CostModel>(CostParams::Postgres());
  }

  ExecContext MakeContext() {
    ExecContext ctx;
    ctx.query = &query_;
    ctx.catalog = &catalog_;
    ctx.db = &db_;
    ctx.cost_model = cm_.get();
    return ctx;
  }

  PlanNodeRef Scan(OpType op, int table, std::vector<int> filters = {},
                   int index_filter = -1) {
    auto n = std::make_shared<PlanNode>();
    n->op = op;
    n->table_idx = table;
    n->filter_idxs = std::move(filters);
    n->index_filter = index_filter;
    return n;
  }

  PlanNodeRef Join(OpType op, PlanNodeRef l, PlanNodeRef r,
                   std::vector<int> joins, int index_join = -1) {
    auto n = std::make_shared<PlanNode>();
    n->op = op;
    n->left = std::move(l);
    n->right = std::move(r);
    n->join_idxs = std::move(joins);
    n->index_join = index_join;
    return n;
  }

  int64_t Run(const PlanNode& root, std::vector<Row>* rows = nullptr) {
    ExecContext ctx = MakeContext();
    const ExecutionOutcome out = ExecutePlan(
        root, &ctx, std::numeric_limits<double>::infinity(), rows);
    EXPECT_EQ(out.status, ExecResult::kDone);
    return out.rows_emitted;
  }

  Database db_;
  Catalog catalog_;
  QuerySpec query_;
  std::unique_ptr<CostModel> cm_;
};

// Join of r and s on k without filters: keys 2 (2x2) and 3 (1x1) -> 5 rows.
constexpr int64_t kJoinNoFilters = 5;

TEST_F(OpsFixture, SeqScanAll) {
  const auto plan = Scan(OpType::kSeqScan, 0);
  std::vector<Row> rows;
  EXPECT_EQ(Run(*plan, &rows), 5);
  EXPECT_EQ(rows[0].size(), 2u);  // k, v
}

TEST_F(OpsFixture, SeqScanWithFilter) {
  // v < 1000 keeps everything; narrow it.
  query_.filters[0].constant = 21;
  const auto plan = Scan(OpType::kSeqScan, 0, {0});
  EXPECT_EQ(Run(*plan), 2);  // v in {10, 20}
}

TEST_F(OpsFixture, IndexScanRange) {
  query_.filters[0].constant = 30;  // v < 30
  const auto plan = Scan(OpType::kIndexScan, 0, {0}, 0);
  std::vector<Row> rows;
  EXPECT_EQ(Run(*plan, &rows), 3);  // 10, 20, 21
}

TEST_F(OpsFixture, IndexScanGreaterEqual) {
  const auto plan = Scan(OpType::kIndexScan, 1, {1}, 1);
  EXPECT_EQ(Run(*plan), 3);  // w >= 201: 201, 300, 400
}

TEST_F(OpsFixture, HashJoinDuplicates) {
  const auto plan = Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1), {0});
  std::vector<Row> rows;
  EXPECT_EQ(Run(*plan, &rows), kJoinNoFilters);
  EXPECT_EQ(rows[0].size(), 4u);  // r.k, r.v, s.k, s.w
  for (const Row& row : rows) EXPECT_EQ(row[0], row[2]);  // key equality
}

TEST_F(OpsFixture, MergeJoinDuplicates) {
  const auto plan = Join(OpType::kMergeJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1), {0});
  std::vector<Row> rows;
  EXPECT_EQ(Run(*plan, &rows), kJoinNoFilters);
  for (const Row& row : rows) EXPECT_EQ(row[0], row[2]);
}

TEST_F(OpsFixture, MaterialNLJoin) {
  const auto plan = Join(OpType::kMaterialNLJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1), {0});
  EXPECT_EQ(Run(*plan), kJoinNoFilters);
}

TEST_F(OpsFixture, IndexNLJoin) {
  const auto plan = Join(OpType::kIndexNLJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kIndexScan, 1), {0}, /*index_join=*/0);
  std::vector<Row> rows;
  EXPECT_EQ(Run(*plan, &rows), kJoinNoFilters);
  for (const Row& row : rows) EXPECT_EQ(row[0], row[2]);
}

TEST_F(OpsFixture, AllJoinMethodsAgreeWithFilters) {
  query_.filters[0].constant = 50;  // r.v < 50 -> drops (5,50)... keeps all but v=50
  const std::vector<int> rf = {0};
  const std::vector<int> sf = {1};
  int64_t expected = -1;
  for (OpType op : {OpType::kHashJoin, OpType::kMergeJoin,
                    OpType::kMaterialNLJoin}) {
    const auto plan = Join(op, Scan(OpType::kSeqScan, 0, rf),
                           Scan(OpType::kSeqScan, 1, sf), {0});
    const int64_t got = Run(*plan);
    if (expected < 0) expected = got;
    EXPECT_EQ(got, expected) << OpTypeName(op);
  }
  // Index NL with inner filters as lookup residuals.
  const auto nl = Join(OpType::kIndexNLJoin, Scan(OpType::kSeqScan, 0, rf),
                       Scan(OpType::kIndexScan, 1, sf), {0}, 0);
  EXPECT_EQ(Run(*nl), expected);
}

TEST_F(OpsFixture, EmptyProbeSide) {
  query_.filters[0].constant = -100;  // nothing passes
  const auto plan = Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0, {0}),
                         Scan(OpType::kSeqScan, 1), {0});
  EXPECT_EQ(Run(*plan), 0);
}

TEST_F(OpsFixture, EmptyBuildSide) {
  query_.filters[1].constant = 100000;  // w >= 100000: nothing
  const auto plan = Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1, {1}), {0});
  EXPECT_EQ(Run(*plan), 0);
}

TEST_F(OpsFixture, TinyBudgetAbortsAllOperators) {
  for (OpType op : {OpType::kHashJoin, OpType::kMergeJoin,
                    OpType::kMaterialNLJoin}) {
    const auto plan = Join(op, Scan(OpType::kSeqScan, 0),
                           Scan(OpType::kSeqScan, 1), {0});
    ExecContext ctx = MakeContext();
    const ExecutionOutcome out = ExecutePlan(*plan, &ctx, 1e-6, nullptr);
    EXPECT_EQ(out.status, ExecResult::kAborted) << OpTypeName(op);
  }
}

TEST_F(OpsFixture, PresortedMergeJoinCorrectAndCheaper) {
  // Index scans on k emit sorted streams; a presorted merge join must
  // return the same rows while charging less than the sorting variant.
  // Build: MJ over two index scans on k (qual: k < 100 => full, sorted).
  query_.filters = {SelectionPredicate{"r", "k", CompareOp::kLess, 100, -1.0},
                    SelectionPredicate{"s", "k", CompareOp::kLess, 100, -1.0}};
  ASSERT_TRUE(query_.Validate(catalog_).ok());
  auto mj = Join(OpType::kMergeJoin, Scan(OpType::kIndexScan, 0, {0}, 0),
                 Scan(OpType::kIndexScan, 1, {1}, 1), {0});
  std::vector<Row> rows_sorting;
  ExecContext ctx1 = MakeContext();
  const ExecutionOutcome sorting = ExecutePlan(
      *mj, &ctx1, std::numeric_limits<double>::infinity(), &rows_sorting);
  ASSERT_EQ(sorting.status, ExecResult::kDone);

  auto mj_fast = std::make_shared<PlanNode>(*mj);
  mj_fast->left_presorted = true;
  mj_fast->right_presorted = true;
  std::vector<Row> rows_presorted;
  ExecContext ctx2 = MakeContext();
  const ExecutionOutcome presorted =
      ExecutePlan(*mj_fast, &ctx2, std::numeric_limits<double>::infinity(),
                  &rows_presorted);
  ASSERT_EQ(presorted.status, ExecResult::kDone);
  EXPECT_EQ(rows_presorted.size(), rows_sorting.size());
  EXPECT_EQ(presorted.rows_emitted, kJoinNoFilters);
  EXPECT_LT(presorted.cost_charged, sorting.cost_charged);
}

TEST_F(OpsFixture, InstrumentationMarksCompletion) {
  const auto plan = Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1), {0});
  ExecContext ctx = MakeContext();
  ExecutePlan(*plan, &ctx, std::numeric_limits<double>::infinity(), nullptr);
  const NodeCounters* root_nc = ctx.instr.Find(plan.get());
  ASSERT_NE(root_nc, nullptr);
  EXPECT_TRUE(root_nc->finished);
  EXPECT_EQ(root_nc->tuples_out, kJoinNoFilters);
  const NodeCounters* scan_nc = ctx.instr.Find(plan->left.get());
  ASSERT_NE(scan_nc, nullptr);
  EXPECT_EQ(scan_nc->tuples_scanned, 5);
}

TEST_F(OpsFixture, AbortPreservesPartialCounters) {
  const auto plan = Scan(OpType::kSeqScan, 0);
  ExecContext ctx = MakeContext();
  // Budget for roughly two rows' charges.
  const ExecutionOutcome out = ExecutePlan(*plan, &ctx, 0.025, nullptr);
  EXPECT_EQ(out.status, ExecResult::kAborted);
  const NodeCounters* nc = ctx.instr.Find(plan.get());
  ASSERT_NE(nc, nullptr);
  EXPECT_GT(nc->tuples_scanned, 0);
  EXPECT_LT(nc->tuples_scanned, 5);
  EXPECT_FALSE(nc->finished);
}

// A join predicate on a column the catalog declares but the data table
// lacks cannot bind, whichever join method carries it and whichever engine
// runs it: bound to any other position, an index NL join's residual would
// compare the wrong columns and return wrong rows.
TEST_F(OpsFixture, JoinOnColumnMissingFromDataFailsToBuild) {
  catalog_.GetMutableTable("s").columns.push_back(ColumnInfo{"x", {}, false});
  query_.joins.push_back(JoinPredicate{"r", "v", "s", "x", -1.0});
  ASSERT_TRUE(query_.Validate(catalog_).ok());
  const std::vector<PlanNodeRef> plans = {
      Join(OpType::kIndexNLJoin, Scan(OpType::kSeqScan, 0),
           Scan(OpType::kIndexScan, 1), {0, 1}, /*index_join=*/0),
      Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0),
           Scan(OpType::kSeqScan, 1), {0, 1})};
  for (const auto& plan : plans) {
    for (const ExecEngine engine : {ExecEngine::kScalar, ExecEngine::kBatch}) {
      ExecContext ctx = MakeContext();
      std::vector<Row> rows;
      const ExecutionOutcome out =
          ExecutePlanWith(engine, *plan, &ctx,
                          std::numeric_limits<double>::infinity(), &rows);
      EXPECT_TRUE(out.build_failed)
          << OpTypeName(plan->op) << " engine " << static_cast<int>(engine)
          << " returned " << out.rows_emitted << " rows";
      EXPECT_TRUE(rows.empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-vs-scalar parity on the fixture plans
// ---------------------------------------------------------------------------

TEST_F(OpsFixture, BatchEngineMatchesScalarOnEveryJoinMethod) {
  query_.filters[0].constant = 50;
  const std::vector<int> rf = {0};
  const std::vector<int> sf = {1};
  std::vector<PlanNodeRef> plans;
  for (OpType op : {OpType::kHashJoin, OpType::kMergeJoin,
                    OpType::kMaterialNLJoin}) {
    plans.push_back(Join(op, Scan(OpType::kSeqScan, 0, rf),
                         Scan(OpType::kSeqScan, 1, sf), {0}));
  }
  plans.push_back(Join(OpType::kIndexNLJoin, Scan(OpType::kSeqScan, 0, rf),
                       Scan(OpType::kIndexScan, 1, sf), {0}, 0));
  for (const auto& plan : plans) {
    ExecContext sctx = MakeContext();
    std::vector<Row> srows;
    const ExecutionOutcome s = ExecutePlan(
        *plan, &sctx, std::numeric_limits<double>::infinity(), &srows);
    for (const int bsz : {1, 3, 1024}) {
      ExecContext bctx = MakeContext();
      bctx.batch_size = bsz;
      std::vector<Row> brows;
      const ExecutionOutcome b =
          ExecutePlanWith(ExecEngine::kBatch, *plan, &bctx,
                          std::numeric_limits<double>::infinity(), &brows);
      EXPECT_EQ(b.status, s.status);
      EXPECT_EQ(b.rows_emitted, s.rows_emitted);
      // Bit-exact: the batch engine replays the identical charge sequence.
      EXPECT_EQ(b.cost_charged, s.cost_charged) << "batch_size " << bsz;
      EXPECT_EQ(brows, srows);
    }
  }
}

// Satellite regression: both engines report identical per-node counters —
// the feed for q_run selectivity discovery — including scan counts and
// completion flags (batch engines account via bulk AddOut/AddScanned).
TEST_F(OpsFixture, BatchAndScalarNodeCountersIdentical) {
  const auto plan = Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1, {1}), {0});
  ExecContext sctx = MakeContext();
  ExecutePlan(*plan, &sctx, std::numeric_limits<double>::infinity(), nullptr);
  ExecContext bctx = MakeContext();
  bctx.batch_size = 2;  // forces multi-batch probing
  ExecutePlanWith(ExecEngine::kBatch, *plan, &bctx,
                  std::numeric_limits<double>::infinity(), nullptr);
  for (const PlanNode* node : CollectNodes(*plan)) {
    const NodeCounters* snc = sctx.instr.Find(node);
    const NodeCounters* bnc = bctx.instr.Find(node);
    ASSERT_NE(snc, nullptr);
    ASSERT_NE(bnc, nullptr);
    EXPECT_EQ(bnc->tuples_out, snc->tuples_out);
    EXPECT_EQ(bnc->tuples_scanned, snc->tuples_scanned);
    EXPECT_EQ(bnc->finished, snc->finished);
  }
}

TEST_F(OpsFixture, BatchAndScalarAbortAtSameTuple) {
  const auto plan = Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1), {0});
  // Sweep budgets through the whole charge range; every abort point must
  // match bit-exactly (status, charged, and partial counters).
  ExecContext full = MakeContext();
  const ExecutionOutcome ref = ExecutePlan(
      *plan, &full, std::numeric_limits<double>::infinity(), nullptr);
  for (int i = 1; i <= 20; ++i) {
    const double budget = ref.cost_charged * i / 21.0;
    ExecContext sctx = MakeContext();
    const ExecutionOutcome s = ExecutePlan(*plan, &sctx, budget, nullptr);
    ExecContext bctx = MakeContext();
    bctx.batch_size = 3;
    const ExecutionOutcome b =
        ExecutePlanWith(ExecEngine::kBatch, *plan, &bctx, budget, nullptr);
    EXPECT_EQ(b.status, s.status) << "budget " << budget;
    EXPECT_EQ(b.cost_charged, s.cost_charged) << "budget " << budget;
    for (const PlanNode* node : CollectNodes(*plan)) {
      const NodeCounters* snc = sctx.instr.Find(node);
      const NodeCounters* bnc = bctx.instr.Find(node);
      ASSERT_EQ(snc == nullptr, bnc == nullptr);
      if (snc == nullptr) continue;
      EXPECT_EQ(bnc->tuples_out, snc->tuples_out);
      EXPECT_EQ(bnc->tuples_scanned, snc->tuples_scanned);
    }
  }
}

// ---------------------------------------------------------------------------
// kAborted resumption semantics: re-pulling an aborted tree is a checked
// no-op in both engines — no new charges, no counter movement.
// ---------------------------------------------------------------------------

TEST_F(OpsFixture, ScalarRepullAfterAbortIsCheckedNoOp) {
  const auto plan = Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1), {0});
  ExecContext ctx = MakeContext();
  ctx.meter.Reset();
  ctx.meter.set_budget(0.05);
  auto built = BuildExecutor(*plan, &ctx);
  ASSERT_TRUE(built.ok());
  Row row;
  ExecResult st = ExecResult::kRow;
  while (st == ExecResult::kRow) st = (*built)->Next(&row);
  ASSERT_EQ(st, ExecResult::kAborted);
  const double charged = ctx.meter.charged();
  const NodeCounters* nc = ctx.instr.Find(plan.get());
  const int64_t out_before = nc != nullptr ? nc->tuples_out : 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*built)->Next(&row), ExecResult::kAborted);
    EXPECT_EQ(ctx.meter.charged(), charged);  // bit-exact: nothing charged
    nc = ctx.instr.Find(plan.get());
    EXPECT_EQ(nc != nullptr ? nc->tuples_out : 0, out_before);
  }
}

TEST_F(OpsFixture, BatchRepullAfterAbortIsCheckedNoOp) {
  // Eager-phase abort (hash build trips the meter inside NextBatch) and
  // replay abort (scan events trip it in the caller's Replay) both leave
  // the tree poisoned: every further pull is kAborted with zero charges.
  const auto join = Join(OpType::kHashJoin, Scan(OpType::kSeqScan, 0),
                         Scan(OpType::kSeqScan, 1), {0});
  {
    ExecContext ctx = MakeContext();
    ctx.meter.Reset();
    ctx.meter.set_budget(1e-6);
    BatchExecState state(&ctx);
    auto built = BuildBatchExecutor(*join, &state);
    ASSERT_TRUE(built.ok());
    ColumnBatch batch;
    batch.Configure((*built)->schema().size());
    batch.Reset();
    ASSERT_EQ((*built)->NextBatch(&batch), ExecResult::kAborted);
    const double charged = ctx.meter.charged();
    for (int i = 0; i < 3; ++i) {
      batch.Reset();
      EXPECT_EQ((*built)->NextBatch(&batch), ExecResult::kAborted);
      EXPECT_EQ(batch.n, 0u);
      EXPECT_TRUE(batch.tape.empty());
      EXPECT_EQ(ctx.meter.charged(), charged);
    }
  }
  {
    const auto scan = Scan(OpType::kSeqScan, 0);
    ExecContext ctx = MakeContext();
    ctx.meter.Reset();
    ctx.meter.set_budget(0.025);
    BatchExecState state(&ctx);
    auto built = BuildBatchExecutor(*scan, &state);
    ASSERT_TRUE(built.ok());
    ColumnBatch batch;
    batch.Configure((*built)->schema().size());
    batch.Reset();
    const ExecResult st = (*built)->NextBatch(&batch);
    ASSERT_NE(st, ExecResult::kAborted);  // data plane never trips the meter
    ASSERT_FALSE(state.Replay(batch.tape.events()));  // ...the replay does
    const double charged = ctx.meter.charged();
    for (int i = 0; i < 3; ++i) {
      batch.Reset();
      EXPECT_EQ((*built)->NextBatch(&batch), ExecResult::kAborted);
      EXPECT_EQ(batch.n, 0u);
      EXPECT_EQ(ctx.meter.charged(), charged);
    }
  }
}

}  // namespace
}  // namespace bouquet
