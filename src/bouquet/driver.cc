#include "bouquet/driver.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "bouquet/climb.h"
#include "common/lint.h"
#include "common/str_util.h"
#include "optimizer/plan_signature.h"

namespace bouquet {

namespace {

constexpr double kRelEps = 1e-9;

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Wall-clock telemetry only: feeds DriverStep/DriverResult seconds fields
// and span attributes, never charged cost, contour decisions, q_run, or
// replay state (those ride the CostMeter and the instrumentation counters).
BOUQUET_NONDETERMINISM_OK std::chrono::steady_clock::time_point WallNow() {
  return std::chrono::steady_clock::now();
}

// "0.001,0.04,1" — the q_run snapshot attribute attached to trace events.
std::string FormatQrun(const DimVector& qrun) {
  std::string out;
  for (size_t d = 0; d < qrun.size(); ++d) {
    if (d > 0) out += ",";
    out += FormatSci(qrun[d], 4);
  }
  return out;
}

// Does the subtree evaluate any error dimension that is not yet learned,
// other than `exclude_dim`?
bool SubtreeHasUnlearnedDim(const PlanNode& node, const QuerySpec& q,
                            const std::vector<bool>& learned,
                            int exclude_dim) {
  for (size_t d = 0; d < q.error_dims.size(); ++d) {
    if (static_cast<int>(d) == exclude_dim || learned[d]) continue;
    const ErrorDimension& ed = q.error_dims[d];
    if (FindPredicateNode(node, ed.kind == DimKind::kJoin,
                          ed.predicate_index) != nullptr) {
      return true;
    }
  }
  return false;
}

}  // namespace

BouquetDriver::BouquetDriver(const PlanBouquet& bouquet,
                             const PlanDiagram& diagram, QueryOptimizer* opt,
                             Database* db)
    : bouquet_(&bouquet),
      diagram_(&diagram),
      opt_(opt),
      db_(db),
      own_index_(std::make_unique<const ContourIndex>(bouquet, diagram,
                                                      opt->query())),
      index_(own_index_.get()) {}

BouquetDriver::BouquetDriver(const PlanBouquet& bouquet,
                             const PlanDiagram& diagram,
                             const ContourIndex& index, QueryOptimizer* opt,
                             Database* db)
    : bouquet_(&bouquet),
      diagram_(&diagram),
      opt_(opt),
      db_(db),
      index_(&index) {}

void BouquetDriver::SetObservability(obs::Tracer* tracer,
                                     obs::MetricsRegistry* metrics,
                                     const obs::Span* parent) {
  tracer_ = tracer;
  metrics_ = metrics;
  if (parent != nullptr && parent->enabled()) {
    trace_parent_ = parent->id();
    trace_id_ = parent->trace_id();
  } else {
    trace_parent_ = 0;
    trace_id_ = 0;
  }
  ins_ = Instruments{};
  if (metrics_ == nullptr) return;
  ins_.executions = metrics_->GetCounter(
      "bouquet_driver_executions_total",
      "Plan executions issued by the driver (partial, spill, and final)");
  ins_.contour_crossings = metrics_->GetCounter(
      "bouquet_driver_contour_crossings_total",
      "Isocost contours abandoned without the query completing");
  ins_.spills = metrics_->GetCounter(
      "bouquet_driver_spills_total",
      "Spill-mode (subtree-only) learning executions");
  ins_.fallbacks = metrics_->GetCounter(
      "bouquet_driver_fallbacks_total",
      "Safety-net unbounded executions after every contour budget was "
      "exhausted");
  ins_.dims_learned = metrics_->GetCounter(
      "bouquet_driver_dims_learned_total",
      "Error dimensions learned exactly from instrumentation counters");
  ins_.budget_utilization = metrics_->GetHistogram(
      "bouquet_driver_budget_utilization",
      "charged/budget ratio per budget-limited execution",
      obs::BudgetUtilizationBuckets());
}

void BouquetDriver::ObserveStep(const DriverStep& step, obs::Span* span) {
  if (span != nullptr && span->enabled()) {
    span->Num("contour", step.contour)
        .Num("plan_id", step.plan_id)
        .Num("budget", step.budget)
        .Num("charged", step.charged)
        .Num("wall_seconds", step.wall_seconds)
        .Num("page_reads", static_cast<double>(step.page_reads))
        .Num("page_hits", static_cast<double>(step.page_hits))
        .Flag("completed", step.completed)
        .Flag("spilled", step.spilled)
        .Num("learned_dim", step.learned_dim)
        .Str("signature", step.plan_signature);
    span->End();
  }
  if (ins_.executions != nullptr) ins_.executions->Inc();
  if (step.spilled && ins_.spills != nullptr) ins_.spills->Inc();
  if (ins_.budget_utilization != nullptr && std::isfinite(step.budget) &&
      step.budget > 0.0) {
    ins_.budget_utilization->Observe(step.charged / step.budget);
  }
}

void BouquetDriver::RunStep(const PlanNode& root, DriverStep step,
                            const obs::Span* parent, ExecContext* ctx,
                            std::vector<Row>* rows, DriverResult* res) {
  obs::Span span = obs::Tracer::Begin(tracer_, "driver.step", parent);
  ctx->query = &opt_->query();
  ctx->catalog = &opt_->catalog();
  ctx->db = db_;
  ctx->cost_model = &opt_->cost_model();
  ctx->metrics = metrics_;
  ctx->tracer = tracer_;
  ctx->trace_parent = span.id();
  ctx->trace_id = span.trace_id();
  const auto t1 = WallNow();
  const ExecutionOutcome out =
      step.spilled ? ExecuteSpilledWith(engine_, root, ctx, step.budget)
                   : ExecutePlanWith(engine_, root, ctx, step.budget, rows);
  const auto t2 = WallNow();
  step.charged = out.cost_charged;
  step.wall_seconds = Seconds(t1, t2);
  step.page_reads = out.page_reads;
  step.page_hits = out.page_hits;
  step.tape_events = out.tape_events;
  step.completed = out.status == ExecResult::kDone && !step.spilled;
  res->total_cost_units += out.cost_charged;
  res->page_reads += out.page_reads;
  res->page_hits += out.page_hits;
  ++res->num_executions;
  res->steps.push_back(std::move(step));
  ObserveStep(res->steps.back(), &span);
}

// The climb's step over the executor. Every execution is cost-metered at
// its contour's budget. An optimized run (`learn`) spills on the learning
// dimension, harvests the instrumentation counters into q_run, and finishes
// with the plan optimal at q_run, without a budget, in the step that learns
// the last dimension or once the ladder is exhausted. A basic run nests its
// steps in one "driver.contour" span per contour and falls back to the plan
// at the ESS max corner.
class BouquetDriver::Backend {
 public:
  Backend(BouquetDriver* driver, bool learn, obs::Span* run)
      : d_(driver),
        learn_(learn),
        run_(run),
        t0_(WallNow()),
        qrun_(driver->opt_->query().NumDims()),
        lo_(qrun_.size()),
        learned_(qrun_.size(), false) {
    for (size_t d = 0; d < qrun_.size(); ++d) {
      qrun_[d] = d_->opt_->query().error_dims[d].lo;
    }
  }

  // A contour point's selectivity grid.axis(d)[coord] is below
  // qrun[d]*(1-eps) exactly when its coordinate is below the first axis
  // index at or above that bound (the axes ascend).
  const int* lo() {
    const EssGrid& grid = d_->diagram_->grid();
    for (size_t d = 0; d < qrun_.size(); ++d) {
      const std::vector<double>& axis = grid.axis(static_cast<int>(d));
      assert(std::is_sorted(axis.begin(), axis.end()));
      lo_[d] = static_cast<int>(
          std::lower_bound(axis.begin(), axis.end(),
                           qrun_[d] * (1.0 - kRelEps)) -
          axis.begin());
    }
    return lo_.data();
  }

  const std::vector<bool>& learned() const { return learned_; }

  double CostAt(int dense) {
    return d_->opt_->CostPlanAt(*PlanOf(dense).root, qrun_);
  }

  bool Execute(size_t k, int dense, int learn_dim) {
    const BouquetContour& contour = d_->bouquet_->contours[k];
    res.contours_crossed = static_cast<int>(k);
    if (!learn_ && span_contour_ != k) {
      contour_ = obs::Tracer::Begin(d_->tracer_, "driver.contour", run_);
      contour_.Num("contour", static_cast<double>(k))
          .Num("budget", contour.budget)
          .Num("num_plans", static_cast<double>(contour.plan_ids.size()));
      span_contour_ = k;
    }
    const Plan& plan = PlanOf(dense);
    // Spill subtree: up to the learning dimension's error node.
    const PlanNode* spill_root = nullptr;
    if (learn_dim >= 0) {
      const ErrorDimension& ed = d_->opt_->query().error_dims[learn_dim];
      spill_root = FindPredicateNode(*plan.root, ed.kind == DimKind::kJoin,
                                     ed.predicate_index);
    }
    DriverStep step;
    step.contour = static_cast<int>(k);
    step.plan_id = d_->index_->plan_id(dense);
    step.plan_signature = plan.signature;
    step.budget = contour.budget;
    step.spilled = spill_root != nullptr && spill_root != plan.root.get();
    step.learned_dim = learn_dim;
    const PlanNode& root = step.spilled ? *spill_root : *plan.root;
    ExecContext ctx;
    std::vector<Row> rows;
    d_->RunStep(root, std::move(step), learn_ ? run_ : &contour_, &ctx,
                &rows, &res);
    if (res.steps.back().completed) {
      // A generic execution finished: this is the query result. Its
      // counters pin the actual selectivities down exactly.
      if (learn_) Harvest(root, &ctx);
      Done(&rows);
      return true;
    }
    // Aborted: intermediate results jettisoned.
    if (!learn_) return false;
    Harvest(root, &ctx);
    if (std::find(learned_.begin(), learned_.end(), false) !=
        learned_.end()) {
      return false;
    }
    Finish(static_cast<int>(k));
    return true;
  }

  // Contour k's budgets were all exhausted: metric and trace event; a basic
  // run's contour span ends.
  void Crossed(size_t k) {
    if (d_->ins_.contour_crossings != nullptr) {
      d_->ins_.contour_crossings->Inc();
    }
    contour_.End();
    if (d_->tracer_ != nullptr) {
      obs::Span ev =
          obs::Tracer::Begin(d_->tracer_, "driver.contour_jump", run_);
      ev.Num("from_contour", static_cast<double>(k))
          .Str("reason", "contour_exhausted");
      ev.End();
    }
  }

  // Every contour was crossed without completing; the last step runs past
  // them (contour index contours.size()).
  void Fallback() {
    res.contours_crossed = static_cast<int>(d_->bouquet_->contours.size());
    if (learn_) {
      Finish(res.contours_crossed);
      return;
    }
    // Safety net (the true q_a lies above the last contour, possible when
    // the grid under-resolves the ESS): run the plan covering the ESS max
    // corner, the plan guaranteed to handle the largest q_a, without a
    // budget. The diagram-level assignment is used directly so this also
    // works when the bouquet has no contours at all (e.g. a degenerate cost
    // range produced zero IC steps).
    if (d_->ins_.fallbacks != nullptr) d_->ins_.fallbacks->Inc();
    const EssGrid& grid = d_->diagram_->grid();
    const uint64_t corner = grid.LinearIndex(grid.MaxCorner());
    int fallback = d_->diagram_->plan_at(corner);
    if (!d_->bouquet_->contours.empty()) {
      const BouquetContour& last = d_->bouquet_->contours.back();
      for (size_t i = 0; i < last.points.size(); ++i) {
        if (last.points[i] == corner) {
          fallback = last.plan_at[i];
          break;
        }
      }
    }
    const Plan& plan = d_->diagram_->plan(fallback);
    DriverStep step;
    step.contour = res.contours_crossed;
    step.plan_id = fallback;
    step.plan_signature = plan.signature;
    step.budget = std::numeric_limits<double>::infinity();
    ExecContext ctx;
    std::vector<Row> rows;
    d_->RunStep(*plan.root, std::move(step), run_, &ctx, &rows, &res);
    Done(&rows);
    run_->Flag("fallback", true);
  }

  DriverResult res;

 private:
  const Plan& PlanOf(int dense) const {
    return d_->diagram_->plan(d_->index_->plan_id(dense));
  }

  // Runs the plan optimal at q_run to completion, stamped `contour`. That
  // plan need not belong to the POSP, so its plan id may be FindPlan's -1
  // sentinel ("not interned in the diagram"); the signature is recorded as
  // its identity either way.
  void Finish(int contour) {
    const Plan plan = d_->opt_->OptimizeAt(qrun_);
    assert(!plan.signature.empty() && "final plan must carry a signature");
    DriverStep step;
    step.contour = contour;
    step.plan_id = d_->diagram_->FindPlan(plan.signature);
    step.plan_signature = plan.signature;
    step.budget = std::numeric_limits<double>::infinity();
    ExecContext ctx;
    std::vector<Row> rows;
    d_->RunStep(*plan.root, std::move(step), run_, &ctx, &rows, &res);
    Harvest(*plan.root, &ctx);
    Done(&rows);
  }

  // Moves q_run and the learned flags from the counters of an execution of
  // `root`; records the movement as a "driver.qrun" event and newly learned
  // dimensions in the dims-learned counter.
  void Harvest(const PlanNode& root, ExecContext* ctx) {
    before_ = learned_;
    const bool moved = d_->HarvestSelectivities(root, ctx, &qrun_, &learned_);
    int newly = 0;
    for (size_t d = 0; d < learned_.size(); ++d) {
      if (learned_[d] && !before_[d]) ++newly;
    }
    if (newly > 0 && d_->ins_.dims_learned != nullptr) {
      d_->ins_.dims_learned->Inc(static_cast<uint64_t>(newly));
    }
    if (d_->tracer_ != nullptr && (moved || newly > 0)) {
      obs::Span ev = obs::Tracer::Begin(d_->tracer_, "driver.qrun", run_);
      ev.Str("q_run", FormatQrun(qrun_))
          .Num("dims_learned",
               static_cast<double>(
                   std::count(learned_.begin(), learned_.end(), true)));
      for (size_t d = 0; d < learned_.size(); ++d) {
        if (learned_[d] && !before_[d]) {
          ev.Num("learned_dim", static_cast<double>(d));
        }
      }
      ev.End();
    }
  }

  // The last step ended the run: the result takes its completion, plan and
  // rows. A step that failed (e.g. a plan that could not be built) leaves
  // the run incomplete rather than an empty success.
  void Done(std::vector<Row>* rows) {
    const DriverStep& last = res.steps.back();
    res.completed = last.completed;
    res.final_plan = last.plan_id;
    if (res.completed) res.final_plan_signature = last.plan_signature;
    res.rows = std::move(*rows);
    res.wall_seconds = Seconds(t0_, WallNow());
    if (learn_) res.discovered_selectivities = qrun_;
    run_->Num("contours_crossed", res.contours_crossed)
        .Num("executions", res.num_executions)
        .Num("total_cost_units", res.total_cost_units)
        .Flag("completed", res.completed);
    if (learn_) run_->Str("q_run", FormatQrun(qrun_));
  }

  BouquetDriver* d_;
  const bool learn_;
  obs::Span* run_;
  const std::chrono::steady_clock::time_point t0_;
  DimVector qrun_;
  std::vector<int> lo_;
  std::vector<bool> learned_;
  std::vector<bool> before_;  // learned_ before the latest harvest
  obs::Span contour_;         // basic runs: the current contour's span
  size_t span_contour_ = static_cast<size_t>(-1);
};

DriverResult BouquetDriver::RunBasic() {
  obs::Span run = obs::Tracer::BeginUnder(tracer_, "driver.run_basic",
                                          trace_parent_, trace_id_);
  Backend b(this, /*learn=*/false, &run);
  ClimbBasic(*bouquet_, *index_, &b);
  return std::move(b.res);
}

bool BouquetDriver::HarvestSelectivities(const PlanNode& plan_root,
                                         ExecContext* ctx, DimVector* qrun,
                                         std::vector<bool>* learned) {
  const QuerySpec& q = opt_->query();
  bool moved = false;

  const std::vector<const PlanNode*> nodes = CollectNodes(plan_root);

  // Resolver with the current q_run injected: learned dims resolve to their
  // discovered (exact) selectivities, error-free predicates to their
  // accurate catalog estimates. Unlearned dims resolve to lower bounds, but
  // those block learning below anyway.
  SelectivityResolver accurate(q, opt_->catalog());

  for (size_t d = 0; d < q.error_dims.size(); ++d) {
    if ((*learned)[d]) continue;
    // Refresh with the current q_run so updates made earlier in this pass
    // are visible (Inject only rewrites the error-dim slots; cheap).
    accurate.Inject(*qrun);
    const ErrorDimension& ed = q.error_dims[d];
    const bool is_join = ed.kind == DimKind::kJoin;
    const PlanNode* node =
        FindPredicateNode(plan_root, is_join, ed.predicate_index);
    if (node == nullptr) continue;
    const NodeCounters* counters = ctx->instr.Find(node);
    if (counters == nullptr) continue;

    double denom = 0.0;
    if (!is_join) {
      // Selection: output = raw_rows * s_d * (other known filter sels).
      const TableInfo& t =
          opt_->catalog().GetTable(q.tables[node->table_idx]);
      denom = t.stats.row_count;
      for (int f : node->filter_idxs) {
        if (f == ed.predicate_index) continue;
        // Another unlearned error dimension on the same node blocks learning.
        bool is_error_dim = false;
        for (size_t e = 0; e < q.error_dims.size(); ++e) {
          if (q.error_dims[e].kind == DimKind::kSelection &&
              q.error_dims[e].predicate_index == f && !(*learned)[e]) {
            is_error_dim = true;
          }
        }
        if (is_error_dim) {
          denom = 0.0;
          break;
        }
        denom *= accurate.FilterSelectivity(f);
      }
    } else {
      // Join: output = |L| * |R| * s_d * (other sels at the node). Inputs
      // must be free of unlearned error dims.
      if (node->left == nullptr || node->right == nullptr) continue;
      if (SubtreeHasUnlearnedDim(*node->left, q, *learned, -1) ||
          SubtreeHasUnlearnedDim(*node->right, q, *learned, -1)) {
        continue;
      }
      // Recost at the *current* q_run — including any updates made earlier
      // in this very pass — so the input cardinalities reflect every
      // already-learned dimension (a stale snapshot would underestimate the
      // denominator and overshoot s_hat, breaching the first-quadrant
      // invariant). Inputs are error-free or fully learned here, so the
      // recosted child cardinalities are exact.
      const PlanCostDetail detail = opt_->RecostPlanAt(plan_root, *qrun);
      double lrows = -1.0, rrows = -1.0;
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i] == node->left.get()) lrows = detail.nodes[i].rows;
        if (nodes[i] == node->right.get()) rrows = detail.nodes[i].rows;
      }
      if (lrows < 0.0 || rrows < 0.0) continue;
      denom = lrows * rrows;
      for (int j : node->join_idxs) {
        if (j == ed.predicate_index) continue;
        bool is_error_dim = false;
        for (size_t e = 0; e < q.error_dims.size(); ++e) {
          if (q.error_dims[e].kind == DimKind::kJoin &&
              q.error_dims[e].predicate_index == j && !(*learned)[e]) {
            is_error_dim = true;
          }
        }
        if (is_error_dim) {
          denom = 0.0;
          break;
        }
        denom *= accurate.JoinSelectivity(j);
      }
    }
    if (denom <= 0.0) continue;

    const double s_hat = static_cast<double>(counters->tuples_out) / denom;
    const double clamped = std::clamp(s_hat, ed.lo, ed.hi);
    if (clamped > (*qrun)[d] * (1.0 + kRelEps)) {
      (*qrun)[d] = clamped;
      moved = true;
    }
    if (counters->finished) {
      (*learned)[d] = true;
      moved = true;
    }
  }
  return moved;
}

DriverResult BouquetDriver::RunOptimized() {
  obs::Span run = obs::Tracer::BeginUnder(tracer_, "driver.run_optimized",
                                          trace_parent_, trace_id_);
  Backend b(this, /*learn=*/true, &run);
  if (warm_start_ > 0) {
    // Feedback warm start: skip the cheap contour prefix. Safe for any
    // clamped value (see SetWarmStart's contract).
    const size_t k = StartContour(warm_start_, bouquet_->contours.size());
    b.res.warm_contours_skipped = static_cast<int>(k);
    run.Num("warm_start_contour", static_cast<double>(k));
  }
  ClimbOptimized(*index_, warm_start_, &b);
  return std::move(b.res);
}

DriverResult BouquetDriver::RunSinglePlan(const PlanNode& root) {
  DriverResult res;
  obs::Span run = obs::Tracer::BeginUnder(tracer_, "driver.run_single",
                                          trace_parent_, trace_id_);
  // Plan identity: native runs execute arbitrary roots, so the plan may or
  // may not be interned in the diagram — FindPlan's -1 sentinel is valid.
  DriverStep step;
  step.contour = DriverStep::kNoContour;  // unbudgeted native run
  step.plan_signature = PlanSignature(root);
  step.plan_id = diagram_->FindPlan(step.plan_signature);
  step.budget = std::numeric_limits<double>::infinity();
  ExecContext ctx;
  RunStep(root, std::move(step), &run, &ctx, &res.rows, &res);
  const DriverStep& done = res.steps.back();
  res.completed = done.completed;
  res.wall_seconds = done.wall_seconds;
  res.final_plan = done.plan_id;
  if (res.completed) res.final_plan_signature = done.plan_signature;
  run.Num("executions", 1.0)
      .Num("total_cost_units", res.total_cost_units)
      .Flag("completed", res.completed);
  return res;
}

ContourHistogram HistogramSteps(const std::vector<DriverStep>& steps) {
  ContourHistogram h;
  for (const DriverStep& step : steps) {
    if (step.contour < 0) {
      // kNoContour (and any other negative sentinel) buckets separately:
      // a native run is not a ladder execution.
      ++h.native;
      continue;
    }
    if (static_cast<size_t>(step.contour) >= h.by_contour.size()) {
      h.by_contour.resize(static_cast<size_t>(step.contour) + 1, 0);
    }
    ++h.by_contour[static_cast<size_t>(step.contour)];
  }
  return h;
}

}  // namespace bouquet
