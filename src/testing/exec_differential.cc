#include "testing/exec_differential.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "executor/builder.h"
#include "executor/exec_context.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan.h"
#include "storage/datagen.h"

namespace bouquet {

namespace {

// Log-maps the instance's nominal row counts (which can span millions)
// into [cap/8, cap] so relative table-size ratios survive the scale-down.
std::map<std::string, int64_t> ScaleRowCounts(const FuzzInstance& instance,
                                              int64_t cap) {
  std::map<std::string, int64_t> rows;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const std::string& name : instance.query.tables) {
    const double l = std::log(
        std::max(2.0, instance.catalog.GetTable(name).stats.row_count));
    lo = std::min(lo, l);
    hi = std::max(hi, l);
  }
  const int64_t floor_rows = std::max<int64_t>(8, cap / 8);
  for (const std::string& name : instance.query.tables) {
    const double l = std::log(
        std::max(2.0, instance.catalog.GetTable(name).stats.row_count));
    const double frac = hi > lo ? (l - lo) / (hi - lo) : 1.0;
    rows[name] = floor_rows +
                 static_cast<int64_t>(frac * static_cast<double>(cap -
                                                                 floor_rows));
  }
  return rows;
}

// Binds one selection predicate's constant from the (data-synced) catalog
// histogram so its actual selectivity is ~`target`; returns the achieved
// selectivity (best effort for kEqual).
double BindOneFilter(SelectionPredicate* f, const Catalog& catalog,
                     double target) {
  const TableInfo& t = catalog.GetTable(f->table);
  const ColumnStats& cs = t.columns[t.ColumnIndex(f->column)].stats;
  const Histogram& hist = cs.histogram;
  if (hist.empty()) {  // degenerate column; any constant keeps builds valid
    f->constant = cs.min_value;
    return 1.0;
  }
  switch (f->op) {
    case CompareOp::kLess:
      f->constant = hist.Quantile(target);
      return hist.SelectivityLess(f->constant);
    case CompareOp::kLessEqual:
      f->constant = hist.Quantile(target);
      return hist.SelectivityLessEqual(f->constant);
    case CompareOp::kGreater:
      f->constant = hist.Quantile(1.0 - target);
      return 1.0 - hist.SelectivityLessEqual(f->constant);
    case CompareOp::kGreaterEqual:
      f->constant = hist.Quantile(1.0 - target);
      return 1.0 - hist.SelectivityLess(f->constant);
    case CompareOp::kEqual:
      f->constant = hist.Quantile(target);
      return cs.EqualitySelectivity();
  }
  return 0.0;
}

}  // namespace

ExecDataset MaterializeInstance(const FuzzInstance& instance,
                                int64_t max_rows_per_table) {
  ExecDataset ds;
  ds.query = instance.query;
  Rng rng(instance.seed ^ 0x9E3779B97F4A7C15ull);

  // Join graph orientation is parent.pk = child.fk (generators.cc), so the
  // right table of each join predicate references the left table's keys.
  std::map<std::string, std::string> parent_of;
  for (const JoinPredicate& j : ds.query.joins) {
    parent_of[j.right_table] = j.left_table;
  }

  const std::map<std::string, int64_t> row_counts =
      ScaleRowCounts(instance, std::max<int64_t>(16, max_rows_per_table));

  // Generated tables list parents before children (chain/star with the hub
  // first), so iterating in query order makes every parent's keys available
  // when its children need them.
  std::map<std::string, std::vector<int64_t>> pk_of;
  for (const std::string& name : ds.query.tables) {
    const TableInfo& info = instance.catalog.GetTable(name);
    const int64_t n = row_counts.at(name);
    std::vector<std::string> col_names;
    col_names.reserve(info.columns.size());
    for (const ColumnInfo& c : info.columns) col_names.push_back(c.name);

    std::vector<std::vector<int64_t>> cols;
    for (const ColumnInfo& c : info.columns) {
      if (c.name == "pk") {
        cols.push_back(datagen::Sequential(n));
      } else if (c.name == "fk") {
        auto parent = parent_of.find(name);
        if (parent != parent_of.end() && pk_of.count(parent->second) > 0) {
          // Imperfect integrity on purpose: dangling keys exercise the
          // join paths where probes find no match.
          cols.push_back(datagen::ForeignKey(&rng, n, pk_of[parent->second],
                                             /*match_fraction=*/0.92));
        } else {
          cols.push_back(datagen::Uniform(&rng, n, 1, std::max<int64_t>(2, n)));
        }
      } else {
        // Data columns: skewed or uniform, domain scaled from the nominal
        // NDV so histograms have usable spread at the reduced row count.
        const int64_t domain = std::max<int64_t>(
            4, std::min<int64_t>(static_cast<int64_t>(c.stats.ndv), 4 * n));
        cols.push_back(rng.NextBool(0.5)
                           ? datagen::Zipf(&rng, n, domain,
                                           0.2 + rng.NextDouble())
                           : datagen::Uniform(&rng, n, 1, domain));
      }
    }

    DataTable t(name, col_names);
    t.Reserve(n);
    std::vector<int64_t> row(cols.size());
    for (int64_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < cols.size(); ++c) row[c] = cols[c][i];
      t.AppendRow(row);
    }
    t.FinalizeBulkLoad();
    const int pk_col = [&] {
      for (size_t c = 0; c < col_names.size(); ++c) {
        if (col_names[c] == "pk") return static_cast<int>(c);
      }
      return 0;
    }();
    DataTable* stored = ds.db.AddTable(std::move(t));
    pk_of[name] = stored->column(pk_col);
    stored->SyncCatalog(&ds.catalog, info.stats.row_width_bytes,
                        /*indexed=*/true, /*histogram_buckets=*/64);
  }

  // Bind every selection constant against the real data. Error selection
  // dims get targets inside their declared [lo, hi] range (clamped away
  // from the degenerate endpoints) and record the achieved selectivity;
  // other filters get unremarkable mid-range targets.
  std::vector<bool> is_error_filter(ds.query.filters.size(), false);
  ds.achieved.assign(ds.query.error_dims.size(), 0.0);
  for (size_t d = 0; d < ds.query.error_dims.size(); ++d) {
    const ErrorDimension& dim = ds.query.error_dims[d];
    if (dim.kind != DimKind::kSelection) continue;
    is_error_filter[dim.predicate_index] = true;
    const double lo = std::max(0.02, dim.lo);
    const double hi = std::max(lo, std::min(0.98, dim.hi));
    const double target = lo + (hi - lo) * rng.NextDouble();
    ds.achieved[d] = BindOneFilter(&ds.query.filters[dim.predicate_index],
                                   ds.catalog, target);
  }
  for (size_t i = 0; i < ds.query.filters.size(); ++i) {
    if (is_error_filter[i]) continue;
    BindOneFilter(&ds.query.filters[i], ds.catalog,
                  0.1 + 0.8 * rng.NextDouble());
  }
  return ds;
}

namespace {

// Per-node counter snapshot, aligned with CollectNodes() preorder.
struct NodeSnap {
  bool present = false;
  int64_t tuples_out = 0;
  int64_t tuples_scanned = 0;
  bool finished = false;
};

struct RunSnap {
  int status = 0;
  bool build_failed = false;
  int64_t rows_emitted = 0;
  FixedCost charged = 0;
  int64_t page_reads = 0;
  int64_t page_hits = 0;
  /// Non-empty when the run's charged page counters diverged from the
  /// buffer manager's miss/hit counters (paged runs only).
  std::string accounting;
  std::vector<Row> rows;
  std::vector<NodeSnap> nodes;
};

RunSnap RunOne(ExecEngine engine, const PlanNode& root, ExecDataset* ds,
               const CostModel* cm, double budget, int batch_size,
               bool spill) {
  ExecContext ctx;
  ctx.query = &ds->query;
  ctx.catalog = &ds->catalog;
  ctx.db = &ds->db;
  ctx.cost_model = cm;
  ctx.batch_size = batch_size;

  // Paged runs: identical cold replacement state for every run, so the
  // scalar oracle and the batch replay face the same hit/miss sequence.
  storage::BufferManager* bm =
      ds->db.storage() != nullptr ? ds->db.storage()->buffer() : nullptr;
  if (bm != nullptr) bm->ResetForTest();

  RunSnap s;
  const ExecutionOutcome out =
      spill ? ExecuteSpilledWith(engine, root, &ctx, budget)
            : ExecutePlanWith(engine, root, &ctx, budget, &s.rows);
  s.status = static_cast<int>(out.status);
  s.build_failed = out.build_failed;
  s.rows_emitted = out.rows_emitted;
  s.charged = ctx.meter.charged();
  s.page_reads = out.page_reads;
  s.page_hits = out.page_hits;
  if (bm != nullptr) {
    // Accounting oracle: what the meter charged as page I/O must be exactly
    // what the replacement simulation decided. Index builds, spills, and
    // maintenance reads never call Access(), so any drift here is a bug in
    // the hot path's charge placement.
    const storage::BufferStats bs = bm->stats();
    if (bs.misses != static_cast<uint64_t>(out.page_reads) ||
        bs.hits != static_cast<uint64_t>(out.page_hits)) {
      s.accounting = StrPrintf(
          "charged reads/hits %lld/%lld vs buffer misses/hits %llu/%llu",
          static_cast<long long>(out.page_reads),
          static_cast<long long>(out.page_hits),
          static_cast<unsigned long long>(bs.misses),
          static_cast<unsigned long long>(bs.hits));
    }
  }
  for (const PlanNode* n : CollectNodes(root)) {
    const NodeCounters* nc = ctx.instr.Find(n);
    NodeSnap ns;
    if (nc != nullptr) {
      ns.present = true;
      ns.tuples_out = nc->tuples_out;
      ns.tuples_scanned = nc->tuples_scanned;
      ns.finished = nc->finished;
    }
    s.nodes.push_back(ns);
  }
  return s;
}

// First divergence between a scalar-oracle snapshot and a batch snapshot,
// or "" when they agree everywhere. `charged` is the meter's integer.
std::string CompareSnaps(const RunSnap& oracle, const RunSnap& batch) {
  if (!oracle.accounting.empty()) {
    return "scalar accounting: " + oracle.accounting;
  }
  if (!batch.accounting.empty()) {
    return "batch accounting: " + batch.accounting;
  }
  if (oracle.page_reads != batch.page_reads ||
      oracle.page_hits != batch.page_hits) {
    return StrPrintf("page reads/hits %lld/%lld vs %lld/%lld",
                     static_cast<long long>(oracle.page_reads),
                     static_cast<long long>(oracle.page_hits),
                     static_cast<long long>(batch.page_reads),
                     static_cast<long long>(batch.page_hits));
  }
  if (oracle.build_failed != batch.build_failed) {
    return StrPrintf("build_failed %d vs %d", static_cast<int>(oracle.build_failed),
                     static_cast<int>(batch.build_failed));
  }
  if (oracle.status != batch.status) {
    return StrPrintf("status %d vs %d", oracle.status, batch.status);
  }
  if (oracle.charged != batch.charged) {
    return StrPrintf("charged %lld vs %lld quanta",
                     static_cast<long long>(oracle.charged),
                     static_cast<long long>(batch.charged));
  }
  if (oracle.rows_emitted != batch.rows_emitted) {
    return StrPrintf("rows_emitted %lld vs %lld",
                     static_cast<long long>(oracle.rows_emitted),
                     static_cast<long long>(batch.rows_emitted));
  }
  if (oracle.rows.size() != batch.rows.size()) {
    return StrPrintf("materialized rows %zu vs %zu", oracle.rows.size(),
                     batch.rows.size());
  }
  for (size_t i = 0; i < oracle.rows.size(); ++i) {
    if (oracle.rows[i] != batch.rows[i]) {
      return StrPrintf("row %zu differs", i);
    }
  }
  if (oracle.nodes.size() != batch.nodes.size()) {
    return StrPrintf("node set %zu vs %zu", oracle.nodes.size(),
                     batch.nodes.size());
  }
  for (size_t i = 0; i < oracle.nodes.size(); ++i) {
    const NodeSnap& a = oracle.nodes[i];
    const NodeSnap& b = batch.nodes[i];
    if (a.present != b.present || a.tuples_out != b.tuples_out ||
        a.tuples_scanned != b.tuples_scanned || a.finished != b.finished) {
      return StrPrintf(
          "node %zu counters (present %d/%d out %lld/%lld scanned %lld/%lld "
          "finished %d/%d)",
          i, static_cast<int>(a.present), static_cast<int>(b.present),
          static_cast<long long>(a.tuples_out),
          static_cast<long long>(b.tuples_out),
          static_cast<long long>(a.tuples_scanned),
          static_cast<long long>(b.tuples_scanned),
          static_cast<int>(a.finished), static_cast<int>(b.finished));
    }
  }
  return "";
}

}  // namespace

ExecDiffResult CheckExecDifferential(const FuzzInstance& instance,
                                     const ExecDifferentialOptions& options) {
  ExecDiffResult r;
  ExecDataset ds = MaterializeInstance(instance, options.max_rows_per_table);

  // Paged mode: re-home the materialized tables onto disk-backed slotted
  // pages behind a buffer pool. The catalog (already synced from identical
  // data) and bound constants carry over unchanged.
  std::unique_ptr<storage::StorageManager> sm;
  if (!options.paged_data_dir.empty()) {
    storage::StorageOptions so;
    so.data_dir = options.paged_data_dir;
    so.pool_pages = options.paged_pool_pages;
    so.policy = options.paged_policy;
    sm = std::make_unique<storage::StorageManager>(so);
    for (const std::string& name : ds.query.tables) {
      auto imported = sm->ImportTable(ds.db.table(name));
      if (!imported.ok()) {
        r.ok = false;
        r.detail = StrPrintf("paged import of %s failed: %s", name.c_str(),
                             imported.status().message().c_str());
        return r;
      }
    }
    Database paged_db;
    paged_db.AttachStorage(sm.get());
    ds.db = std::move(paged_db);
  }

  const CostModel cm(instance.cost_params);
  QueryOptimizer opt(ds.query, ds.catalog, instance.cost_params);

  // Candidate optimization points: ESS corners plus the native defaults.
  const int nd = ds.query.NumDims();
  std::vector<DimVector> points;
  DimVector all_lo(nd), all_hi(nd), mid(nd);
  for (int d = 0; d < nd; ++d) {
    all_lo[d] = ds.query.error_dims[d].lo;
    all_hi[d] = ds.query.error_dims[d].hi;
    mid[d] = std::sqrt(all_lo[d] * all_hi[d]);
  }
  points.push_back(all_lo);
  points.push_back(all_hi);
  points.push_back(mid);
  points.push_back(opt.DefaultDims());

  std::vector<Plan> plans;
  for (const DimVector& p : points) {
    if (static_cast<int>(plans.size()) >= options.max_plans) break;
    Plan plan = opt.OptimizeAt(p);
    bool dup = false;
    for (const Plan& seen : plans) dup = dup || seen.signature == plan.signature;
    if (!dup) plans.push_back(std::move(plan));
  }

  const double inf = std::numeric_limits<double>::infinity();
  for (const Plan& plan : plans) {
    ++r.plans_checked;

    // Reference full run under the scalar oracle; its total charge anchors
    // the budget sweep.
    const RunSnap full = RunOne(ExecEngine::kScalar, *plan.root, &ds, &cm,
                                inf, /*batch_size=*/1024, /*spill=*/false);
    const double total = CostFromFixed(full.charged);

    // Budget sweep: unlimited, below-first-charge (abort on tuple one),
    // exactly the total and one quantum below it (complete vs abort on the
    // last charge), and interior fractions. Each fraction that aborts adds
    // the oracle's charge at its abort and one quantum below as budgets:
    // the unit that tripped then fits exactly, or trips again — both sides
    // of the boundary the batch replay finds by division.
    std::vector<double> budgets = {inf, total * 1e-9};
    if (full.charged > 0) {
      budgets.push_back(total);
      budgets.push_back(CostFromFixed(full.charged - 1));
    }
    const size_t first_fraction = budgets.size();
    for (int i = 1; i <= options.budget_sweeps; ++i) {
      budgets.push_back(total * static_cast<double>(i) /
                        static_cast<double>(options.budget_sweeps + 1));
    }
    const size_t end_fraction = budgets.size();

    for (size_t k = 0; k < budgets.size(); ++k) {
      const double budget = budgets[k];
      const RunSnap oracle =
          budget == inf ? full
                        : RunOne(ExecEngine::kScalar, *plan.root, &ds, &cm,
                                 budget, 1024, false);
      if (k >= first_fraction && k < end_fraction &&
          oracle.status == static_cast<int>(ExecResult::kAborted)) {
        budgets.push_back(CostFromFixed(oracle.charged));
        budgets.push_back(CostFromFixed(oracle.charged - 1));
      }
      for (const int bsz : options.batch_sizes) {
        const RunSnap batch = RunOne(ExecEngine::kBatch, *plan.root, &ds, &cm,
                                     budget, bsz, false);
        ++r.runs_compared;
        const std::string diff = CompareSnaps(oracle, batch);
        if (!diff.empty()) {
          r.ok = false;
          r.detail = StrPrintf(
              "plan %s budget %.17g batch_size %d: %s", plan.signature.c_str(),
              budget, bsz, diff.c_str());
          return r;
        }
      }
    }

    if (!options.check_spill) continue;
    for (size_t d = 0; d < ds.query.error_dims.size(); ++d) {
      const ErrorDimension& dim = ds.query.error_dims[d];
      const PlanNode* sub = FindPredicateNode(
          *plan.root, dim.kind == DimKind::kJoin, dim.predicate_index);
      if (sub == nullptr) continue;
      const RunSnap sfull = RunOne(ExecEngine::kScalar, *sub, &ds, &cm, inf,
                                   1024, /*spill=*/true);
      std::vector<double> sbudgets = {inf, CostFromFixed(sfull.charged) * 0.5};
      if (sfull.charged > 0) {
        sbudgets.push_back(CostFromFixed(sfull.charged - 1));
      }
      for (const double budget : sbudgets) {
        const RunSnap oracle =
            budget == inf ? sfull
                          : RunOne(ExecEngine::kScalar, *sub, &ds, &cm,
                                   budget, 1024, true);
        for (const int bsz : options.batch_sizes) {
          const RunSnap batch =
              RunOne(ExecEngine::kBatch, *sub, &ds, &cm, budget, bsz, true);
          ++r.runs_compared;
          const std::string diff = CompareSnaps(oracle, batch);
          if (!diff.empty()) {
            r.ok = false;
            r.detail = StrPrintf(
                "spill dim %zu plan %s budget %.17g batch_size %d: %s", d,
                plan.signature.c_str(), budget, bsz, diff.c_str());
            return r;
          }
        }
      }
    }
  }
  return r;
}

}  // namespace bouquet
