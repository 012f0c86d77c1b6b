#include "testing/storage_ladder.h"

#include <limits>
#include <vector>

#include "executor/exec_context.h"
#include "optimizer/plan.h"

namespace bouquet {
namespace {

ExecContext MakeContext(LadderSession* s) {
  ExecContext ctx;
  ctx.query = &s->query;
  ctx.catalog = &s->catalog;
  ctx.db = &s->db;
  ctx.cost_model = s->cm.get();
  ctx.batch_size = 1024;
  return ctx;
}

PlanNodeRef IndexRangeScan(int table_idx, int filter_idx) {
  auto n = std::make_shared<PlanNode>();
  n->op = OpType::kIndexScan;
  n->table_idx = table_idx;
  n->filter_idxs = {filter_idx};
  n->index_filter = filter_idx;
  return n;
}

PlanNodeRef SeqScan(int table_idx) {
  auto n = std::make_shared<PlanNode>();
  n->op = OpType::kSeqScan;
  n->table_idx = table_idx;
  return n;
}

void Run(LadderSession* s, ExecEngine engine, const PlanNode& plan,
         LadderTotals* t) {
  ExecContext ctx = MakeContext(s);
  const ExecutionOutcome out =
      ExecutePlanWith(engine, plan, &ctx,
                      std::numeric_limits<double>::infinity(), nullptr);
  t->charged += out.cost_charged;
  t->rows += out.rows_emitted;
  t->page_reads += out.page_reads;
  t->page_hits += out.page_hits;
}

}  // namespace

storage::DatasetSpec LadderDatasetSpec() {
  storage::DatasetSpec spec;
  spec.num_tables = 2;
  spec.rows_per_table = 8192;
  // Wide rows (few per page) keep page I/O dominant over per-tuple CPU in
  // the charged cost, as it is for the paper's disk-resident workloads.
  spec.data_columns = 62;
  spec.dim_rows = 1440;  // dim1 spans ~3x the pool: a flushing scan
  return spec;
}

Status OpenLadderSession(const std::string& data_dir,
                         storage::EvictionPolicyKind policy,
                         LadderSession* out) {
  LadderSession& s = *out;
  s.sm = std::make_unique<storage::StorageManager>(
      storage::StorageOptions{data_dir, kLadderPoolPages, policy});
  for (const std::string& name :
       storage::DatasetTableNames(LadderDatasetSpec())) {
    auto opened = s.sm->OpenTable(name);
    if (!opened.ok()) return opened.status();
  }
  s.db.AttachStorage(s.sm.get());
  s.db.SyncCatalog(&s.catalog);
  const storage::PagedTable* fact = s.db.paged("fact");
  const storage::PagedTable* dim = s.db.paged("dim1");
  s.rpp = fact->rows_per_page();
  s.fact_rows = fact->num_rows();
  s.fact_pages = fact->num_data_pages();
  s.dim_pages = dim->num_data_pages();

  s.query.name = "storage_bench";
  s.query.tables = {"fact", "dim1"};
  s.query.joins = {JoinPredicate{"fact", "fk1", "dim1", "pk", -1.0}};
  s.query.filters = {
      SelectionPredicate{"fact", "pk", CompareOp::kLess, 1, -1.0},
      SelectionPredicate{"fact", "pk", CompareOp::kGreaterEqual, 1, -1.0}};
  const Status valid = s.query.Validate(s.catalog);
  if (!valid.ok()) return valid;
  s.cm = std::make_unique<CostModel>(CostParams::Postgres());
  // Pre-build the pk index: maintenance streams are unaccounted, but they
  // should not show up in the wall times either.
  s.db.sorted_index("fact", 0);
  return Status::Ok();
}

LadderTotals RunReexecLadder(LadderSession* s, ExecEngine engine) {
  s->sm->buffer()->ResetForTest();
  const PlanNodeRef plan = IndexRangeScan(0, 0);
  LadderTotals t;
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 1; k <= 8; ++k) {
      s->query.filters[0].constant = static_cast<int64_t>(3 * k + 1) * s->rpp;
      Run(s, engine, *plan, &t);
    }
  }
  return t;
}

// The one-shot burst after the first hot read demotes the hot pages into
// 2Q's ghost queue while they are still young, so the second hot read
// promotes them into Am, out of the sequential flood's reach.
LadderTotals RunScanMix(LadderSession* s, ExecEngine engine) {
  s->sm->buffer()->ResetForTest();
  const PlanNodeRef hot = IndexRangeScan(0, 0);
  const PlanNodeRef burst = IndexRangeScan(0, 1);
  const PlanNodeRef dim_scan = SeqScan(1);
  s->query.filters[0].constant = static_cast<int64_t>(12) * s->rpp;
  s->query.filters[1].constant =
      s->fact_rows - static_cast<int64_t>(34) * s->rpp + 1;
  LadderTotals t;
  Run(s, engine, *hot, &t);
  Run(s, engine, *burst, &t);
  for (int round = 0; round < 8; ++round) {
    Run(s, engine, *hot, &t);
    Run(s, engine, *dim_scan, &t);
  }
  return t;
}

}  // namespace bouquet
