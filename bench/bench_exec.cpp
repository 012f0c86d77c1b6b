// Executor throughput: vectorized batch engine vs the scalar Volcano
// oracle on TPC-H mini data, plus the bit-compatibility spot check
// (identical charged cost at every shape).
//
// Shapes:
//   scan — a Q6-style conjunctive range scan of lineitem: four BETWEEN
//          pairs (eight range predicates, wide ones first, combined
//          selectivity ~1.2%);
//   join — hash join with a filtered orders probe side and the full
//          lineitem table as the build side (build-heavy).
//
// Scalar and batch reps are interleaved and each side takes its best
// time, so a noisy neighbor inflates both engines alike rather than
// whichever happened to run during the spike.
//
// The report ends with a batch-size sweep. The bit-compatibility it
// prints is pinned by test_exec_differential; the speedups are timings and
// are not gated.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "executor/batch.h"
#include "executor/builder.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

struct ExecBench {
  Database db;
  Catalog catalog;
  QuerySpec query;
  std::unique_ptr<CostModel> cm;
  PlanNodeRef scan_plan;
  PlanNodeRef join_plan;
  int64_t lineitem_rows = 0;

  void Build(double mini_scale) {
    TpchDataOptions opts;
    opts.mini_scale = mini_scale;
    MakeTpchDatabase(&db, opts);
    SyncTpchCatalog(db, &catalog);
    lineitem_rows = db.table("lineitem").num_rows();

    query.name = "exec_bench";
    query.tables = {"orders", "lineitem"};
    query.joins = {
        JoinPredicate{"orders", "o_orderkey", "lineitem", "l_orderkey", -1.0}};
    query.filters = {
        SelectionPredicate{"lineitem", "l_extendedprice",
                           CompareOp::kGreaterEqual, 100000, -1.0},
        SelectionPredicate{"lineitem", "l_quantity", CompareOp::kGreaterEqual,
                           5, -1.0},
        SelectionPredicate{"lineitem", "l_discount", CompareOp::kGreaterEqual,
                           1, -1.0},
        SelectionPredicate{"lineitem", "l_shipdate", CompareOp::kGreaterEqual,
                           400, -1.0},
        SelectionPredicate{"lineitem", "l_quantity", CompareOp::kLess, 38,
                           -1.0},
        SelectionPredicate{"lineitem", "l_shipdate", CompareOp::kLess, 1900,
                           -1.0},
        SelectionPredicate{"lineitem", "l_discount", CompareOp::kLessEqual, 6,
                           -1.0},
        SelectionPredicate{"lineitem", "l_extendedprice", CompareOp::kLess,
                           600000, -1.0},
        SelectionPredicate{"orders", "o_totalprice", CompareOp::kLess, 600000,
                           -1.0}};
    cm = std::make_unique<CostModel>(CostParams::Postgres());

    auto scan = std::make_shared<PlanNode>();
    scan->op = OpType::kSeqScan;
    scan->table_idx = 1;  // lineitem
    scan->filter_idxs = {0, 1, 2, 3, 4, 5, 6, 7};
    scan_plan = scan;

    auto probe = std::make_shared<PlanNode>();
    probe->op = OpType::kSeqScan;
    probe->table_idx = 0;  // orders (filtered probe side)
    probe->filter_idxs = {8};
    auto build = std::make_shared<PlanNode>();
    build->op = OpType::kSeqScan;
    build->table_idx = 1;  // lineitem (build side)
    auto join = std::make_shared<PlanNode>();
    join->op = OpType::kHashJoin;
    join->left = probe;
    join->right = build;
    join->join_idxs = {0};
    join_plan = join;
  }

  ExecContext MakeContext(int batch_size) const {
    ExecContext ctx;
    ctx.query = &query;
    ctx.catalog = &catalog;
    ctx.db = const_cast<Database*>(&db);
    ctx.cost_model = cm.get();
    ctx.batch_size = batch_size;
    return ctx;
  }
};

struct Measurement {
  double seconds = 0.0;      ///< best-of-reps wall time
  double charged = 0.0;
};

struct Comparison {
  Measurement scalar;
  Measurement batch;
  double speedup = 0.0;
  bool charged_equal = false;  ///< bit-exact
};

Comparison Compare(const ExecBench& bench, const PlanNode& plan,
                   int batch_size, int reps) {
  Comparison c;
  c.scalar.seconds = std::numeric_limits<double>::infinity();
  c.batch.seconds = std::numeric_limits<double>::infinity();
  for (int i = 0; i <= reps; ++i) {  // rep 0 is the warmup (index builds)
    for (const ExecEngine engine : {ExecEngine::kScalar, ExecEngine::kBatch}) {
      Measurement& m = engine == ExecEngine::kScalar ? c.scalar : c.batch;
      ExecContext ctx = bench.MakeContext(batch_size);
      const auto t0 = std::chrono::steady_clock::now();
      const ExecutionOutcome out = ExecutePlanWith(
          engine, plan, &ctx, std::numeric_limits<double>::infinity(),
          /*results=*/nullptr);
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      m.charged = out.cost_charged;
      if (i > 0) m.seconds = std::min(m.seconds, secs);
    }
  }
  c.speedup = c.batch.seconds > 0.0 ? c.scalar.seconds / c.batch.seconds : 0.0;
  c.charged_equal = c.scalar.charged == c.batch.charged;
  return c;
}

void PrintComparison(const char* name, const ExecBench& bench,
                     const Comparison& c) {
  const double rows = static_cast<double>(bench.lineitem_rows);
  std::printf("  %-18s scalar %8.2f ms (%6.2f Mrows/s)   "
              "batch %8.2f ms (%6.2f Mrows/s)   speedup %5.2fx   "
              "charged %s\n",
              name, c.scalar.seconds * 1e3,
              rows / c.scalar.seconds / 1e6, c.batch.seconds * 1e3,
              rows / c.batch.seconds / 1e6, c.speedup,
              c.charged_equal ? "bit-equal" : "DIVERGED");
}

void PrintReproduction() {
  std::printf("Vectorized batch executor vs scalar Volcano oracle\n");
  std::printf("(TPC-H mini, single thread; rows/s normalized to lineitem "
              "input rows)\n\n");
  ExecBench bench;
  bench.Build(/*mini_scale=*/2.0);
  std::printf("  lineitem %lld rows, orders %lld rows\n\n",
              static_cast<long long>(bench.lineitem_rows),
              static_cast<long long>(bench.db.table("orders").num_rows()));
  PrintComparison("filtered scan", bench,
                  Compare(bench, *bench.scan_plan, 1024, 9));
  PrintComparison("hash join", bench,
                  Compare(bench, *bench.join_plan, 1024, 9));
  std::printf("\n  batch-size sweep (hash join):\n");
  for (const int bsz : {64, 256, 1024, 4096}) {
    const Comparison c = Compare(bench, *bench.join_plan, bsz, 3);
    std::printf("    batch_size %5d: %8.2f ms   speedup %5.2fx   "
                "charged %s\n",
                bsz, c.batch.seconds * 1e3, c.speedup,
                c.charged_equal ? "bit-equal" : "DIVERGED");
  }
}

}  // namespace
}  // namespace bouquet

int main() {
  bouquet::PrintReproduction();
  return 0;
}
