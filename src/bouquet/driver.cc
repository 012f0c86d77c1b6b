#include "bouquet/driver.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "common/str_util.h"
#include "common/lint.h"
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
      index_(bouquet, diagram, opt->query()) {}

ExecContext BouquetDriver::MakeContext() {
  ExecContext ctx;
  ctx.query = &opt_->query();
  ctx.catalog = &opt_->catalog();
  ctx.db = db_;
  ctx.cost_model = &opt_->cost_model();
  ctx.metrics = metrics_;
  return ctx;
}

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

DriverResult BouquetDriver::RunBasic() {
  DriverResult res;
  const auto t0 = WallNow();
  obs::Span run = obs::Tracer::BeginUnder(tracer_, "driver.run_basic",
                                          trace_parent_, trace_id_);

  for (size_t k = 0; k < bouquet_->contours.size(); ++k) {
    const BouquetContour& contour = bouquet_->contours[k];
    res.contours_crossed = static_cast<int>(k);
    obs::Span contour_span =
        obs::Tracer::Begin(tracer_, "driver.contour", &run);
    contour_span.Num("contour", static_cast<double>(k))
        .Num("budget", contour.budget)
        .Num("num_plans", static_cast<double>(contour.plan_ids.size()));
    for (int plan_id : contour.plan_ids) {
      const Plan& plan = diagram_->plan(plan_id);
      obs::Span step_span =
          obs::Tracer::Begin(tracer_, "driver.step", &contour_span);
      ExecContext ctx = MakeContext();
      ctx.tracer = tracer_;
      ctx.trace_parent = step_span.id();
      ctx.trace_id = step_span.trace_id();
      std::vector<Row> rows;
      const auto t1 = WallNow();
      const ExecutionOutcome out =
          ExecutePlanWith(engine_, *plan.root, &ctx, contour.budget, &rows);
      const auto t2 = WallNow();

      DriverStep step;
      step.contour = static_cast<int>(k);
      step.plan_id = plan_id;
      step.plan_signature = plan.signature;
      step.budget = contour.budget;
      step.charged = out.cost_charged;
      step.wall_seconds = Seconds(t1, t2);
      step.page_reads = out.page_reads;
      step.page_hits = out.page_hits;
      step.completed = out.status == ExecResult::kDone;
      res.total_cost_units += out.cost_charged;
      res.page_reads += out.page_reads;
      res.page_hits += out.page_hits;
      ++res.num_executions;
      res.steps.push_back(step);
      ObserveStep(step, &step_span);

      if (out.status == ExecResult::kDone) {
        res.completed = true;
        res.final_plan = plan_id;
        res.final_plan_signature = plan.signature;
        res.rows = std::move(rows);
        res.wall_seconds = Seconds(t0, t2);
        run.Num("contours_crossed", res.contours_crossed)
            .Num("executions", res.num_executions)
            .Num("total_cost_units", res.total_cost_units)
            .Flag("completed", true);
        return res;
      }
      // Aborted: intermediate results jettisoned (rows discarded).
    }
    // This contour's budgets were all exhausted: cross to the next one.
    if (ins_.contour_crossings != nullptr) ins_.contour_crossings->Inc();
  }

  // Safety net: every contour budget was exhausted (the true q_a lies above
  // the last contour, possible when the grid under-resolves the ESS). Run
  // the plan covering the ESS max corner — the plan guaranteed to handle the
  // largest q_a — without a budget. The diagram-level assignment is used
  // directly so this also works when the bouquet has no contours at all
  // (e.g. a degenerate cost range produced zero IC steps).
  if (ins_.fallbacks != nullptr) ins_.fallbacks->Inc();
  const uint64_t corner =
      diagram_->grid().LinearIndex(diagram_->grid().MaxCorner());
  int fallback = diagram_->plan_at(corner);
  if (!bouquet_->contours.empty()) {
    const BouquetContour& last = bouquet_->contours.back();
    for (size_t i = 0; i < last.points.size(); ++i) {
      if (last.points[i] == corner) {
        fallback = last.plan_at[i];
        break;
      }
    }
  }
  // All contours were crossed without completing; the fallback runs beyond
  // them (contour index = contours.size() marks "past the last contour").
  res.contours_crossed = static_cast<int>(bouquet_->contours.size());
  const Plan& plan = diagram_->plan(fallback);
  obs::Span step_span = obs::Tracer::Begin(tracer_, "driver.step", &run);
  ExecContext ctx = MakeContext();
  ctx.tracer = tracer_;
  ctx.trace_parent = step_span.id();
  ctx.trace_id = step_span.trace_id();
  std::vector<Row> rows;
  const auto t1 = WallNow();
  const ExecutionOutcome out = ExecutePlanWith(
      engine_, *plan.root, &ctx, std::numeric_limits<double>::infinity(),
      &rows);
  const auto t2 = WallNow();
  DriverStep step;
  step.contour = res.contours_crossed;
  step.plan_id = fallback;
  step.plan_signature = plan.signature;
  step.budget = std::numeric_limits<double>::infinity();
  step.charged = out.cost_charged;
  step.wall_seconds = Seconds(t1, t2);
  step.page_reads = out.page_reads;
  step.page_hits = out.page_hits;
  step.completed = out.status == ExecResult::kDone;
  res.steps.push_back(step);
  ++res.num_executions;
  res.total_cost_units += out.cost_charged;
  res.page_reads += out.page_reads;
  res.page_hits += out.page_hits;
  ObserveStep(step, &step_span);
  // A build failure (e.g. abstract predicates without constants) must not
  // masquerade as a successful empty result.
  res.completed = out.status == ExecResult::kDone;
  res.final_plan = fallback;
  if (res.completed) res.final_plan_signature = plan.signature;
  res.rows = std::move(rows);
  res.wall_seconds = Seconds(t0, t2);
  run.Num("contours_crossed", res.contours_crossed)
      .Num("executions", res.num_executions)
      .Num("total_cost_units", res.total_cost_units)
      .Flag("completed", res.completed)
      .Flag("fallback", true);
  return res;
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
  DriverResult res;
  const QuerySpec& q = opt_->query();
  const EssGrid& grid = diagram_->grid();
  const int dims = q.NumDims();
  const auto t0 = WallNow();
  obs::Span run = obs::Tracer::BeginUnder(tracer_, "driver.run_optimized",
                                          trace_parent_, trace_id_);

  DimVector qrun(dims);
  std::vector<bool> learned(dims, false);
  for (int d = 0; d < dims; ++d) qrun[d] = q.error_dims[d].lo;

  auto all_learned = [&]() {
    return std::all_of(learned.begin(), learned.end(),
                       [](bool b) { return b; });
  };

  // Records q_run movement and newly-learned dimensions after a harvest
  // (trace event + dims-learned counter), comparing against `before`.
  auto observe_harvest = [&](const std::vector<bool>& before, bool moved) {
    int newly = 0;
    for (int d = 0; d < dims; ++d) {
      if (learned[d] && !before[d]) ++newly;
    }
    if (newly > 0 && ins_.dims_learned != nullptr) {
      ins_.dims_learned->Inc(static_cast<uint64_t>(newly));
    }
    if (tracer_ != nullptr && (moved || newly > 0)) {
      obs::Span ev = obs::Tracer::Begin(tracer_, "driver.qrun", &run);
      ev.Str("q_run", FormatQrun(qrun))
          .Num("dims_learned",
               static_cast<double>(
                   std::count(learned.begin(), learned.end(), true)));
      for (int d = 0; d < dims; ++d) {
        if (learned[d] && !before[d]) {
          ev.Num("learned_dim", static_cast<double>(d));
        }
      }
      ev.End();
    }
  };

  auto final_execution = [&](std::chrono::steady_clock::time_point t_begin) {
    const Plan plan = opt_->OptimizeAt(qrun);
    obs::Span step_span = obs::Tracer::Begin(tracer_, "driver.step", &run);
    ExecContext ctx = MakeContext();
    ctx.tracer = tracer_;
    ctx.trace_parent = step_span.id();
    ctx.trace_id = step_span.trace_id();
    std::vector<Row> rows;
    const auto t1 = WallNow();
    const ExecutionOutcome out = ExecutePlanWith(
        engine_, *plan.root, &ctx, std::numeric_limits<double>::infinity(),
        &rows);
    const auto t2 = WallNow();
    DriverStep step;
    step.contour = res.contours_crossed;
    // The plan optimal at the discovered q_run need not belong to the POSP,
    // so FindPlan may legitimately return the -1 sentinel. The signature is
    // recorded as the plan's canonical identity either way; -1 here means
    // "not interned in the diagram", never "unknown plan".
    step.plan_id = diagram_->FindPlan(plan.signature);
    step.plan_signature = plan.signature;
    assert(!plan.signature.empty() && "final plan must carry a signature");
    step.budget = std::numeric_limits<double>::infinity();
    step.charged = out.cost_charged;
    step.wall_seconds = Seconds(t1, t2);
    step.page_reads = out.page_reads;
    step.page_hits = out.page_hits;
    step.completed = out.status == ExecResult::kDone;
    res.steps.push_back(step);
    ++res.num_executions;
    res.total_cost_units += out.cost_charged;
    res.page_reads += out.page_reads;
    res.page_hits += out.page_hits;
    ObserveStep(step, &step_span);
    res.completed = out.status == ExecResult::kDone;
    res.final_plan = step.plan_id;
    if (res.completed) res.final_plan_signature = plan.signature;
    res.rows = std::move(rows);
    res.wall_seconds = Seconds(t_begin, t2);
    const std::vector<bool> before = learned;
    const bool moved = HarvestSelectivities(*plan.root, &ctx, &qrun, &learned);
    observe_harvest(before, moved);
    res.discovered_selectivities = qrun;
    run.Num("contours_crossed", res.contours_crossed)
        .Num("executions", res.num_executions)
        .Num("total_cost_units", res.total_cost_units)
        .Flag("completed", res.completed)
        .Str("q_run", FormatQrun(qrun));
  };

  // Crossing to contour k+1 without completing: metric + trace event.
  auto observe_crossing = [&](size_t from_k, const char* why) {
    if (ins_.contour_crossings != nullptr) ins_.contour_crossings->Inc();
    if (tracer_ != nullptr) {
      obs::Span ev = obs::Tracer::Begin(tracer_, "driver.contour_jump", &run);
      ev.Num("from_contour", static_cast<double>(from_k))
          .Str("reason", why);
      ev.End();
    }
  };

  // Scan scratch, reused across the run's steps.
  ContourIndex::Scratch scratch(index_);
  std::vector<int> lo(dims);
  std::vector<double> costs;

  size_t k = 0;
  if (warm_start_ > 0) {
    // Feedback warm start: skip the cheap contour prefix. Safe for any
    // clamped value — see SetWarmStart's contract. Clamp to the LAST
    // contour, not one past it: the Cmax contour must still execute.
    k = bouquet_->contours.empty()
            ? 0
            : std::min(static_cast<size_t>(warm_start_),
                       bouquet_->contours.size() - 1);
    res.warm_contours_skipped = static_cast<int>(k);
    run.Num("warm_start_contour", static_cast<double>(k));
  }
  while (k < bouquet_->contours.size()) {
    const BouquetContour& contour = bouquet_->contours[k];
    const double budget = contour.budget;
    res.contours_crossed = static_cast<int>(k);

    if (all_learned()) {
      final_execution(t0);
      return res;
    }
    // Early skip: optimal cost at the lower-bound location already exceeds
    // this contour's budget.
    if (opt_->OptimizeAt(qrun).cost > budget * (1.0 + kRelEps)) {
      observe_crossing(k, "early_skip");
      ++k;
      continue;
    }

    scratch.ResetExcluded();
    bool advanced = false;
    while (!advanced) {
      if (all_learned()) {
        final_execution(t0);
        return res;
      }
      // Candidate plans: contour points in the first quadrant of q_run. A
      // point's selectivity grid.axis(d)[coord] is below qrun[d]*(1-eps)
      // exactly when its coordinate is below the first axis index at or
      // above that bound (the axes ascend).
      for (int d = 0; d < dims; ++d) {
        const std::vector<double>& axis = grid.axis(d);
        assert(std::is_sorted(axis.begin(), axis.end()));
        lo[d] = static_cast<int>(
            std::lower_bound(axis.begin(), axis.end(),
                             qrun[d] * (1.0 - kRelEps)) -
            axis.begin());
      }
      index_.Candidates(k, lo.data(), /*want_axis=*/false, &scratch);
      const std::vector<int>& remaining = scratch.candidates;
      if (remaining.empty()) {
        observe_crossing(k, "contour_exhausted");
        ++k;
        break;
      }

      // Pick: cheapest at q_run within a 20% group, deepest unlearned
      // error node.
      int chosen = remaining.front();
      {
        double min_cost = std::numeric_limits<double>::infinity();
        costs.resize(remaining.size());
        for (size_t i = 0; i < remaining.size(); ++i) {
          costs[i] = opt_->CostPlanAt(
              *diagram_->plan(index_.plan_id(remaining[i])).root, qrun);
          min_cost = std::min(min_cost, costs[i]);
        }
        int best_depth = -2;
        for (size_t i = 0; i < remaining.size(); ++i) {
          if (costs[i] > min_cost * 1.2) continue;
          int depth = -1;
          index_.DeepestUnlearned(remaining[i], learned, &depth);
          if (depth > best_depth) {
            best_depth = depth;
            chosen = remaining[i];
          }
        }
      }

      // Learning dimension (deepest unlearned) and its spill subtree.
      const Plan& plan = diagram_->plan(index_.plan_id(chosen));
      int learn_depth = -1;
      const int learn_dim = index_.DeepestUnlearned(chosen, learned,
                                                    &learn_depth);
      const PlanNode* spill_root = nullptr;
      if (learn_dim >= 0) {
        const ErrorDimension& ed = q.error_dims[learn_dim];
        spill_root = FindPredicateNode(
            *plan.root, ed.kind == DimKind::kJoin, ed.predicate_index);
      }
      const bool spill_is_full = spill_root == plan.root.get();

      obs::Span step_span = obs::Tracer::Begin(tracer_, "driver.step", &run);
      ExecContext ctx = MakeContext();
      ctx.tracer = tracer_;
      ctx.trace_parent = step_span.id();
      ctx.trace_id = step_span.trace_id();
      std::vector<Row> rows;
      const auto t1 = WallNow();
      ExecutionOutcome out;
      if (spill_root != nullptr && !spill_is_full) {
        out = ExecuteSpilledWith(engine_, *spill_root, &ctx, budget);
      } else {
        out = ExecutePlanWith(engine_, *plan.root, &ctx, budget, &rows);
      }
      const auto t2 = WallNow();

      DriverStep step;
      step.contour = static_cast<int>(k);
      step.plan_id = index_.plan_id(chosen);
      step.plan_signature = plan.signature;
      step.budget = budget;
      step.charged = out.cost_charged;
      step.wall_seconds = Seconds(t1, t2);
      step.page_reads = out.page_reads;
      step.page_hits = out.page_hits;
      step.spilled = spill_root != nullptr && !spill_is_full;
      step.learned_dim = learn_dim;
      step.completed =
          out.status == ExecResult::kDone && !step.spilled;
      res.steps.push_back(step);
      ++res.num_executions;
      res.total_cost_units += out.cost_charged;
      res.page_reads += out.page_reads;
      res.page_hits += out.page_hits;
      ObserveStep(step, &step_span);

      if (out.status == ExecResult::kDone && !step.spilled) {
        // A generic execution finished: this is the query result. Harvest
        // the completed run's counters first — they pin down the actual
        // selectivities exactly (useful for workload error logs).
        const std::vector<bool> before = learned;
        const bool moved =
            HarvestSelectivities(*plan.root, &ctx, &qrun, &learned);
        observe_harvest(before, moved);
        res.completed = true;
        res.final_plan = step.plan_id;
        res.final_plan_signature = plan.signature;
        res.rows = std::move(rows);
        res.wall_seconds = Seconds(t0, t2);
        res.discovered_selectivities = qrun;
        run.Num("contours_crossed", res.contours_crossed)
            .Num("executions", res.num_executions)
            .Num("total_cost_units", res.total_cost_units)
            .Flag("completed", true)
            .Str("q_run", FormatQrun(qrun));
        return res;
      }

      const PlanNode& harvest_root =
          step.spilled ? *spill_root : *plan.root;
      {
        const std::vector<bool> before = learned;
        const bool moved =
            HarvestSelectivities(harvest_root, &ctx, &qrun, &learned);
        observe_harvest(before, moved);
      }
      scratch.Exclude(chosen);

      // Early contour change once the optimal cost at q_run exceeds the
      // budget.
      if (opt_->OptimizeAt(qrun).cost > budget * (1.0 + kRelEps)) {
        observe_crossing(k, "qrun_advanced");
        ++k;
        advanced = true;
      }
    }
  }

  // All contours exhausted: execute the optimal plan at the discovered
  // location to completion.
  res.contours_crossed = static_cast<int>(bouquet_->contours.size());
  final_execution(t0);
  return res;
}

DriverResult BouquetDriver::RunSinglePlan(const PlanNode& root) {
  DriverResult res;
  obs::Span run = obs::Tracer::BeginUnder(tracer_, "driver.run_single",
                                          trace_parent_, trace_id_);
  obs::Span step_span = obs::Tracer::Begin(tracer_, "driver.step", &run);
  ExecContext ctx = MakeContext();
  ctx.tracer = tracer_;
  ctx.trace_parent = step_span.id();
  ctx.trace_id = step_span.trace_id();
  const auto t1 = WallNow();
  const ExecutionOutcome out = ExecutePlanWith(
      engine_, root, &ctx, std::numeric_limits<double>::infinity(), &res.rows);
  const auto t2 = WallNow();
  res.completed = out.status == ExecResult::kDone;
  res.total_cost_units = out.cost_charged;
  res.wall_seconds = Seconds(t1, t2);
  res.num_executions = 1;
  res.page_reads = out.page_reads;
  res.page_hits = out.page_hits;

  // Plan identity: native runs execute arbitrary roots, so the plan may or
  // may not be interned in the diagram — FindPlan's -1 sentinel is valid.
  const std::string signature = PlanSignature(root);
  res.final_plan = diagram_->FindPlan(signature);
  if (res.completed) res.final_plan_signature = signature;

  DriverStep step;
  step.contour = DriverStep::kNoContour;  // unbudgeted native run
  step.plan_id = res.final_plan;
  step.plan_signature = signature;
  step.budget = std::numeric_limits<double>::infinity();
  step.charged = out.cost_charged;
  step.wall_seconds = res.wall_seconds;
  step.page_reads = out.page_reads;
  step.page_hits = out.page_hits;
  step.completed = res.completed;
  res.steps.push_back(step);
  ObserveStep(step, &step_span);
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
