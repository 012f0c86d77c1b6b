// Batch-vs-scalar executor differential tests.
//
// The vectorized engine's whole contract is bit-compatibility with the
// scalar oracle: identical charged cost, identical abort points under any
// budget, identical result rows and per-node counters. These tests check
// that contract three ways: a seeded fuzz sweep through the differential
// harness (scaled up by BOUQUET_EXEC_DIFF_ITERS for scheduled runs),
// hand-built degenerate shapes (empty inputs, single rows, everything
// filtered, batch size 1), and a full BouquetDriver matrix asserting the
// driver's DriverStep sequences are byte-identical across engines. The
// sweeps also pin the scalar oracle's own absolute charges and counters
// (ExecDiffResult::oracle_fingerprint), which a comparison of the two
// engines cannot: the engines share their charge units, so a unit that
// moves moves in both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bouquet/bounds.h"
#include "bouquet/driver.h"
#include "ess/posp_generator.h"
#include "executor/builder.h"
#include "golden_digest.h"
#include "storage/paged_table.h"
#include "testing/exec_differential.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

int SweepIterations() {
  const char* env = std::getenv("BOUQUET_EXEC_DIFF_ITERS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 1000;
}

// ---------------------------------------------------------------------------
// Seeded differential sweep
// ---------------------------------------------------------------------------

TEST(ExecDifferential, SeededSweepHasZeroDivergences) {
  const int iters = SweepIterations();
  ExecDifferentialOptions opts;
  opts.max_rows_per_table = 96;
  opts.max_plans = 2;
  opts.budget_sweeps = 2;
  opts.batch_sizes = {1, 7, 1024};
  long long runs = 0;
  GoldenDigest oracle;
  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = 0xD1FFu + static_cast<uint64_t>(i);
    const FuzzInstance instance = GenerateFuzzInstance(seed);
    // Spill subtrees are the expensive part; sample them.
    opts.check_spill = i % 4 == 0;
    const ExecDiffResult r = CheckExecDifferential(instance, opts);
    ASSERT_TRUE(r.ok) << instance.Describe() << ": " << r.detail;
    runs += r.runs_compared;
    oracle.Add(r.oracle_fingerprint);
  }
  std::printf("exec differential sweep: %d instances, %lld engine-pair "
              "runs, zero divergences, oracle fingerprint 0x%016llx\n",
              iters, runs, static_cast<unsigned long long>(oracle.value()));
  // The scalar oracle's absolute charges over the default sweep; a scaled
  // sweep (BOUQUET_EXEC_DIFF_ITERS) folds other instances.
  if (iters == 1000) {
    EXPECT_EQ(oracle.value(), 0x981023dcd57601b9ULL);
  }
}

// The same differential, but both engines execute over disk-backed paged
// storage: the harness imports every materialized table into .btbl files,
// resets the buffer pool before each run so both engines replay against an
// identical cold pool, and an accounting oracle inside the harness asserts
// that the charged page reads/hits of every (engine, budget, batch-size)
// run equal the buffer manager's miss/hit counters exactly. A tiny pool
// (4 pages) over multi-page tables keeps every run under heavy eviction
// pressure; both policies are exercised.
TEST(ExecDifferential, PagedSweepExactAccountingAndParity) {
  GoldenDigest oracle;
  for (const storage::EvictionPolicyKind policy :
       {storage::EvictionPolicyKind::k2Q,
        storage::EvictionPolicyKind::kLru}) {
    const char* tag =
        policy == storage::EvictionPolicyKind::k2Q ? "2q" : "lru";
    ExecDifferentialOptions opts;
    opts.max_rows_per_table = 1500;  // tables span several pages
    opts.max_plans = 2;
    opts.budget_sweeps = 2;
    opts.batch_sizes = {1, 7, 1024};
    opts.paged_pool_pages = 4;
    opts.paged_policy = policy;
    long long runs = 0;
    for (int i = 0; i < 6; ++i) {
      const uint64_t seed = 0x9A6EDu + static_cast<uint64_t>(i);
      opts.paged_data_dir = ::testing::TempDir() + "/exec_diff_paged_" +
                            tag + "_" + std::to_string(i);
      // Spill-mode subtrees materialize through the same pool; sample them.
      opts.check_spill = i % 2 == 0;
      const FuzzInstance instance = GenerateFuzzInstance(seed);
      const ExecDiffResult r = CheckExecDifferential(instance, opts);
      ASSERT_TRUE(r.ok) << tag << " " << instance.Describe() << ": "
                        << r.detail;
      runs += r.runs_compared;
      oracle.Add(r.oracle_fingerprint);
    }
    EXPECT_GT(runs, 0) << tag;
  }
  // The scalar oracle's absolute charges and page counts over both pools.
  std::printf("paged oracle fingerprint 0x%016llx\n",
              static_cast<unsigned long long>(oracle.value()));
  EXPECT_EQ(oracle.value(), 0x371527c2bb467130ULL);
}

TEST(ExecDifferential, DeterministicFromSeed) {
  const FuzzInstance instance = GenerateFuzzInstance(42);
  ExecDataset a = MaterializeInstance(instance, 128);
  ExecDataset b = MaterializeInstance(instance, 128);
  ASSERT_EQ(a.achieved, b.achieved);
  for (const std::string& t : a.query.tables) {
    ASSERT_EQ(a.db.table(t).num_rows(), b.db.table(t).num_rows());
    for (int c = 0; c < a.db.table(t).num_columns(); ++c) {
      ASSERT_EQ(a.db.table(t).column(c), b.db.table(t).column(c)) << t;
    }
  }
  const ExecDiffResult ra = CheckExecDifferential(instance);
  const ExecDiffResult rb = CheckExecDifferential(instance);
  EXPECT_EQ(ra.ok, rb.ok);
  EXPECT_EQ(ra.runs_compared, rb.runs_compared);
  EXPECT_EQ(ra.plans_checked, rb.plans_checked);
}

// ---------------------------------------------------------------------------
// Hand-built degenerate shapes
// ---------------------------------------------------------------------------

class DegenerateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    DataTable e("e", {"k", "v"});  // deliberately empty
    DataTable one("one", {"k", "v"});
    one.AppendRow({7, 70});
    DataTable r("r", {"k", "v"});
    for (int64_t i = 1; i <= 9; ++i) r.AppendRow({i % 4, i * 10});
    db_.AddTable(std::move(e));
    db_.AddTable(std::move(one));
    db_.AddTable(std::move(r));
    db_.SyncCatalog(&catalog_, 64.0);
    query_.name = "degenerate";
    query_.tables = {"e", "one", "r"};
    query_.joins = {JoinPredicate{"e", "k", "r", "k", -1.0},
                    JoinPredicate{"one", "k", "r", "k", -1.0}};
    query_.filters = {
        SelectionPredicate{"r", "v", CompareOp::kLess, -100, -1.0},  // none
        SelectionPredicate{"r", "v", CompareOp::kLess, 1000, -1.0}};  // all
    ASSERT_TRUE(query_.Validate(catalog_).ok());
    cm_ = std::make_unique<CostModel>(CostParams::Postgres());
  }

  ExecContext MakeContext(int batch_size) {
    ExecContext ctx;
    ctx.query = &query_;
    ctx.catalog = &catalog_;
    ctx.db = &db_;
    ctx.cost_model = cm_.get();
    ctx.batch_size = batch_size;
    return ctx;
  }

  PlanNodeRef Scan(int table, std::vector<int> filters = {}) {
    auto n = std::make_shared<PlanNode>();
    n->op = OpType::kSeqScan;
    n->table_idx = table;
    n->filter_idxs = std::move(filters);
    return n;
  }

  PlanNodeRef Join(OpType op, PlanNodeRef l, PlanNodeRef r, int join_idx) {
    auto n = std::make_shared<PlanNode>();
    n->op = op;
    n->left = std::move(l);
    n->right = std::move(r);
    n->join_idxs = {join_idx};
    return n;
  }

  // Runs the plan under both engines across a budget sweep and asserts
  // bit-identical outcomes at every batch size.
  void ExpectParity(const PlanNode& plan) {
    const double inf = std::numeric_limits<double>::infinity();
    ExecContext ref = MakeContext(1024);
    std::vector<Row> ref_rows;
    const ExecutionOutcome full = ExecutePlan(plan, &ref, inf, &ref_rows);
    std::vector<double> budgets = {inf, full.cost_charged * 0.5,
                                   full.cost_charged * 1e-9};
    for (const double budget : budgets) {
      ExecContext sctx = MakeContext(1024);
      std::vector<Row> srows;
      const ExecutionOutcome s = ExecutePlan(plan, &sctx, budget, &srows);
      for (const int bsz : {1, 2, 3, 1024}) {
        ExecContext bctx = MakeContext(bsz);
        std::vector<Row> brows;
        const ExecutionOutcome b =
            ExecutePlanWith(ExecEngine::kBatch, plan, &bctx, budget, &brows);
        ASSERT_EQ(b.status, s.status) << "budget " << budget;
        ASSERT_EQ(b.cost_charged, s.cost_charged)
            << "budget " << budget << " batch " << bsz;
        ASSERT_EQ(brows, srows);
      }
    }
  }

  Database db_;
  Catalog catalog_;
  QuerySpec query_;
  std::unique_ptr<CostModel> cm_;
};

TEST_F(DegenerateFixture, EmptyTableScan) { ExpectParity(*Scan(0)); }

TEST_F(DegenerateFixture, SingleRowScan) { ExpectParity(*Scan(1)); }

TEST_F(DegenerateFixture, AllFilteredScan) { ExpectParity(*Scan(2, {0})); }

TEST_F(DegenerateFixture, NothingFilteredScan) { ExpectParity(*Scan(2, {1})); }

TEST_F(DegenerateFixture, JoinsWithEmptySides) {
  for (OpType op : {OpType::kHashJoin, OpType::kMergeJoin,
                    OpType::kMaterialNLJoin}) {
    ExpectParity(*Join(op, Scan(0), Scan(2), 0));  // empty probe/left
    ExpectParity(*Join(op, Scan(2), Scan(0), 0));  // empty build/right
    ExpectParity(*Join(op, Scan(0), Scan(0), 0));  // both empty
  }
}

TEST_F(DegenerateFixture, JoinsWithSingleAndFilteredInputs) {
  for (OpType op : {OpType::kHashJoin, OpType::kMergeJoin,
                    OpType::kMaterialNLJoin}) {
    ExpectParity(*Join(op, Scan(1), Scan(2), 1));       // 1-row left
    ExpectParity(*Join(op, Scan(2, {0}), Scan(2), 0));  // all-filtered left
  }
}

// ---------------------------------------------------------------------------
// BouquetDriver step-sequence matrix (Table 3 machinery across engines)
// ---------------------------------------------------------------------------

class DriverMatrixFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchDataOptions opts;
    opts.mini_scale = 0.2;
    MakeTpchDatabase(&db_, opts);
    SyncTpchCatalog(db_, &catalog_);
    query_ = Make2DHQ8a(catalog_);
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

  // Everything but wall_seconds must be byte-identical.
  static void ExpectStepsIdentical(const std::vector<DriverStep>& a,
                                   const std::vector<DriverStep>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].contour, b[i].contour) << "step " << i;
      EXPECT_EQ(a[i].plan_id, b[i].plan_id) << "step " << i;
      EXPECT_EQ(a[i].plan_signature, b[i].plan_signature) << "step " << i;
      EXPECT_EQ(a[i].budget, b[i].budget) << "step " << i;
      EXPECT_EQ(a[i].charged, b[i].charged) << "step " << i;  // bit-exact
      EXPECT_EQ(a[i].completed, b[i].completed) << "step " << i;
      EXPECT_EQ(a[i].spilled, b[i].spilled) << "step " << i;
      EXPECT_EQ(a[i].learned_dim, b[i].learned_dim) << "step " << i;
    }
  }

  DriverResult Run(ExecEngine engine, bool optimized) {
    BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &db_);
    driver.SetEngine(engine);
    return optimized ? driver.RunOptimized() : driver.RunBasic();
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

TEST_F(DriverMatrixFixture, BasicStepSequencesIdenticalAcrossEngines) {
  const DriverResult scalar = Run(ExecEngine::kScalar, /*optimized=*/false);
  const DriverResult batch = Run(ExecEngine::kBatch, /*optimized=*/false);
  EXPECT_EQ(batch.completed, scalar.completed);
  EXPECT_EQ(batch.total_cost_units, scalar.total_cost_units);  // bit-exact
  EXPECT_EQ(batch.num_executions, scalar.num_executions);
  EXPECT_EQ(batch.contours_crossed, scalar.contours_crossed);
  EXPECT_EQ(batch.final_plan, scalar.final_plan);
  EXPECT_EQ(batch.final_plan_signature, scalar.final_plan_signature);
  EXPECT_EQ(batch.rows, scalar.rows);
  ExpectStepsIdentical(scalar.steps, batch.steps);
}

TEST_F(DriverMatrixFixture, OptimizedStepSequencesIdenticalAcrossEngines) {
  const DriverResult scalar = Run(ExecEngine::kScalar, /*optimized=*/true);
  const DriverResult batch = Run(ExecEngine::kBatch, /*optimized=*/true);
  EXPECT_EQ(batch.completed, scalar.completed);
  EXPECT_EQ(batch.total_cost_units, scalar.total_cost_units);
  EXPECT_EQ(batch.num_executions, scalar.num_executions);
  EXPECT_EQ(batch.contours_crossed, scalar.contours_crossed);
  EXPECT_EQ(batch.final_plan_signature, scalar.final_plan_signature);
  EXPECT_EQ(batch.rows, scalar.rows);
  // The optimized algorithm's q_run learning feeds on per-node counters;
  // identical counters must produce identical discovered selectivities.
  EXPECT_EQ(batch.discovered_selectivities, scalar.discovered_selectivities);
  ExpectStepsIdentical(scalar.steps, batch.steps);
}

// ---------------------------------------------------------------------------
// BouquetDriver over disk-backed storage: the Table 3 machinery with real
// I/O charged on the hot path
// ---------------------------------------------------------------------------

class PagedDriverFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchDataOptions data_opts;
    data_opts.mini_scale = 0.2;
    MakeTpchDatabase(&mem_db_, data_opts);
    SyncTpchCatalog(mem_db_, &catalog_);
    query_ = Make2DHQ8a(catalog_);
    achieved_ = BindSelectionConstants(&query_, catalog_, {0.337, 0.456});
    ASSERT_TRUE(query_.Validate(catalog_).ok());
    opt_ = std::make_unique<QueryOptimizer>(query_, catalog_,
                                            CostParams::Postgres());
    grid_ = std::make_unique<EssGrid>(query_, std::vector<int>{16, 16});
    diagram_ = std::make_unique<PlanDiagram>(
        GeneratePosp(query_, catalog_, CostParams::Postgres(), *grid_));
    bouquet_ = std::make_unique<PlanBouquet>(
        BuildBouquet(*diagram_, opt_.get()));

    // Re-home the query's tables onto disk-backed pages behind a pool small
    // enough that the bouquet's repeated partial executions churn it.
    storage::StorageOptions sopts;
    sopts.data_dir = ::testing::TempDir() + "/paged_driver";
    sopts.pool_pages = 16;
    sopts.policy = storage::EvictionPolicyKind::k2Q;
    sm_ = std::make_unique<storage::StorageManager>(sopts);
    for (const std::string& t : query_.tables) {
      auto imported = sm_->ImportTable(mem_db_.table(t));
      ASSERT_TRUE(imported.ok()) << t << ": " << imported.status().ToString();
    }
    paged_db_.AttachStorage(sm_.get());
  }

  // Every driver run starts from an identical cold pool so scalar and batch
  // replay the same eviction history.
  DriverResult Run(ExecEngine engine, bool optimized) {
    sm_->buffer()->ResetForTest();
    BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &paged_db_);
    driver.SetEngine(engine);
    return optimized ? driver.RunOptimized() : driver.RunBasic();
  }

  DriverResult RunOracle() {
    sm_->buffer()->ResetForTest();
    const Plan plan = opt_->OptimizeAt(achieved_);
    BouquetDriver driver(*bouquet_, *diagram_, opt_.get(), &paged_db_);
    return driver.RunSinglePlan(*plan.root);
  }

  Database mem_db_;
  Database paged_db_;
  Catalog catalog_;
  QuerySpec query_;
  std::vector<double> achieved_;
  std::unique_ptr<QueryOptimizer> opt_;
  std::unique_ptr<EssGrid> grid_;
  std::unique_ptr<PlanDiagram> diagram_;
  std::unique_ptr<PlanBouquet> bouquet_;
  std::unique_ptr<storage::StorageManager> sm_;
};

TEST_F(PagedDriverFixture, StepSequencesIdenticalAcrossEnginesOnPages) {
  for (const bool optimized : {false, true}) {
    const DriverResult scalar = Run(ExecEngine::kScalar, optimized);
    const DriverResult batch = Run(ExecEngine::kBatch, optimized);
    EXPECT_EQ(batch.completed, scalar.completed) << optimized;
    EXPECT_EQ(batch.total_cost_units, scalar.total_cost_units);  // bit-exact
    EXPECT_EQ(batch.num_executions, scalar.num_executions);
    EXPECT_EQ(batch.final_plan_signature, scalar.final_plan_signature);
    EXPECT_EQ(batch.rows, scalar.rows);
    EXPECT_EQ(batch.page_reads, scalar.page_reads);
    EXPECT_EQ(batch.page_hits, scalar.page_hits);
    ASSERT_EQ(batch.steps.size(), scalar.steps.size());
    for (size_t i = 0; i < scalar.steps.size(); ++i) {
      EXPECT_EQ(batch.steps[i].plan_signature,
                scalar.steps[i].plan_signature) << "step " << i;
      EXPECT_EQ(batch.steps[i].budget, scalar.steps[i].budget) << i;
      EXPECT_EQ(batch.steps[i].charged, scalar.steps[i].charged) << i;
      EXPECT_EQ(batch.steps[i].completed, scalar.steps[i].completed) << i;
      EXPECT_EQ(batch.steps[i].spilled, scalar.steps[i].spilled) << i;
      EXPECT_EQ(batch.steps[i].page_reads, scalar.steps[i].page_reads) << i;
      EXPECT_EQ(batch.steps[i].page_hits, scalar.steps[i].page_hits) << i;
    }
  }
}

// Theorem 3's MSO discipline with I/O-charged costs: the paged bouquet run
// completes with the correct result, every aborted partial execution stops
// within a whisker of its budget, real page I/O is actually charged (both
// misses and buffer hits appear in the meter), and the end-to-end
// sub-optimality against the oracle plan stays inside the paper's
// 4*(1+lambda)*rho envelope.
TEST_F(PagedDriverFixture, MsoDisciplineHoldsWithChargedIo) {
  // Reference result from the in-memory database.
  BouquetDriver mem_driver(*bouquet_, *diagram_, opt_.get(), &mem_db_);
  const Plan oracle_plan = opt_->OptimizeAt(achieved_);
  const int64_t expected =
      static_cast<int64_t>(mem_driver.RunSinglePlan(*oracle_plan.root)
                               .rows.size());
  ASSERT_GT(expected, 0);

  const DriverResult bou = Run(ExecEngine::kScalar, /*optimized=*/false);
  EXPECT_TRUE(bou.completed);
  EXPECT_EQ(static_cast<int64_t>(bou.rows.size()), expected);

  // The meter charged real page fetches, and the pool was big enough to
  // convert at least some re-scans into priced buffer hits.
  EXPECT_GT(bou.page_reads, 0);
  EXPECT_GT(bou.page_hits, 0);

  // Budget compliance: cost-limited executions abort within a whisker.
  for (const DriverStep& step : bou.steps) {
    if (!step.completed && std::isfinite(step.budget)) {
      EXPECT_LE(step.charged, step.budget * 1.01 + 10.0);
    }
  }

  const DriverResult oracle = RunOracle();
  ASSERT_GT(oracle.total_cost_units, 0.0);
  EXPECT_GT(oracle.page_reads, 0);
  const double subopt = bou.total_cost_units / oracle.total_cost_units;
  EXPECT_GE(subopt, 1.0 - 1e-6);
  EXPECT_LT(subopt, 4.0 * 1.2 * bouquet_->rho() + 1.0);
  // The analytic Theorem 3 bound also caps the empirical ratio.
  EXPECT_LT(subopt, BouquetMsoBound(*bouquet_) * (1.0 + 1e-6));
}

// ---------------------------------------------------------------------------
// Metering-tape work counter (ExecutionOutcome::tape_events)
// ---------------------------------------------------------------------------

// One paged 3-table plan: a filtered scan of orders, index-NL-joined to
// customer, hash-joined to nation. An unbudgeted batch run adds its charges
// straight into the execution's totals, so its tapes carry only the page
// accesses (resolved in scalar order against the pool) and the node
// finishes. A budgeted run keeps every charge run on the tape.
TEST(TapeEventsTest, UnbudgetedRunReplaysOnlyPagesAndFinishes) {
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir{::testing::TempDir() + "/tape_events_paged"};
  std::filesystem::remove_all(dir.path);
  Database mem;
  TpchDataOptions data_opts;
  data_opts.mini_scale = 0.2;
  MakeTpchDatabase(&mem, data_opts);
  Catalog catalog;
  SyncTpchCatalog(mem, &catalog);
  storage::StorageManager sm(storage::StorageOptions{
      dir.path, 16, storage::EvictionPolicyKind::k2Q});
  for (const char* t : {"orders", "customer", "nation"}) {
    ASSERT_TRUE(sm.ImportTable(mem.table(t)).ok()) << t;
  }
  const DataTable& orders = mem.table("orders");
  std::vector<int64_t> prices =
      orders.column(orders.ColumnIndex("o_totalprice"));
  std::nth_element(prices.begin(), prices.begin() + prices.size() / 2,
                   prices.end());
  Database db;
  db.AttachStorage(&sm);

  QuerySpec q;
  q.name = "tape_events";
  q.tables = {"orders", "customer", "nation"};
  q.joins = {
      JoinPredicate{"orders", "o_custkey", "customer", "c_custkey", -1.0},
      JoinPredicate{"customer", "c_nationkey", "nation", "n_nationkey", -1.0}};
  q.filters = {SelectionPredicate{"orders", "o_totalprice", CompareOp::kLess,
                                  prices[prices.size() / 2], -1.0}};
  ASSERT_TRUE(q.Validate(catalog).ok());
  const auto scan = [](int table, std::vector<int> filters) {
    auto n = std::make_shared<PlanNode>();
    n->op = OpType::kSeqScan;
    n->table_idx = table;
    n->filter_idxs = std::move(filters);
    return n;
  };
  auto inl = std::make_shared<PlanNode>();
  inl->op = OpType::kIndexNLJoin;
  inl->left = scan(0, {0});
  inl->right = scan(1, {});
  inl->join_idxs = {0};
  inl->index_join = 0;
  PlanNode root;
  root.op = OpType::kHashJoin;
  root.left = inl;
  root.right = scan(2, {});
  root.join_idxs = {1};

  const CostModel cm(CostParams::Postgres());
  int finished = 0;
  const auto run = [&](ExecEngine engine, double budget) {
    ExecContext ctx;
    ctx.query = &q;
    ctx.catalog = &catalog;
    ctx.db = &db;
    ctx.cost_model = &cm;
    sm.buffer()->ResetForTest();
    const ExecutionOutcome out = ExecutePlanWith(engine, root, &ctx, budget);
    finished = 0;
    for (const PlanNode* n : CollectNodes(root)) {
      const NodeCounters* nc = ctx.instr.Find(n);
      finished += nc != nullptr && nc->finished ? 1 : 0;
    }
    return out;
  };

  const double inf = std::numeric_limits<double>::infinity();
  const ExecutionOutcome scalar = run(ExecEngine::kScalar, inf);
  EXPECT_EQ(scalar.tape_events, 0);
  const ExecutionOutcome unbudgeted = run(ExecEngine::kBatch, inf);
  ASSERT_EQ(unbudgeted.status, ExecResult::kDone);
  EXPECT_EQ(finished, 4);  // the customer scan is the join's index probe
  EXPECT_GT(unbudgeted.page_hits, 0);
  EXPECT_EQ(unbudgeted.tape_events,
            unbudgeted.page_reads + unbudgeted.page_hits + finished);
  EXPECT_EQ(unbudgeted.cost_charged, scalar.cost_charged);

  // Budgeted runs replay every charge run, in order, up to the abort.
  const ExecutionOutcome at_total =
      run(ExecEngine::kBatch, scalar.cost_charged);
  EXPECT_EQ(at_total.status, ExecResult::kDone);
  EXPECT_EQ(at_total.tape_events, 12100);
  const ExecutionOutcome at_half =
      run(ExecEngine::kBatch, scalar.cost_charged * 0.5);
  EXPECT_EQ(at_half.status, ExecResult::kAborted);
  EXPECT_EQ(at_half.tape_events, 6074);
}

}  // namespace
}  // namespace bouquet
