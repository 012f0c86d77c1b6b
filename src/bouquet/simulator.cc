#include "bouquet/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace bouquet {

namespace {

constexpr double kEps = 1e-9;

// SplitMix-style mix for the deterministic modeling-error factor.
uint64_t MixHash(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x7f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

BouquetSimulator::BouquetSimulator(const PlanBouquet& bouquet,
                                   const PlanDiagram& diagram,
                                   QueryOptimizer* opt, Options options)
    : bouquet_(&bouquet),
      diagram_(&diagram),
      options_(options),
      index_(bouquet, diagram, opt->query()) {
  const EssGrid& grid = diagram.grid();
  const uint64_t n = grid.num_points();
  // Cost surfaces in one linear sweep: consecutive points move one
  // dimension, so each plan's recoster recomputes only the nodes above it.
  // The plans share one row table over their join subsets, refreshed once
  // per point.
  const CardinalityContext card(opt->query(), opt->catalog());
  SelectivityResolver sel(opt->query(), opt->catalog());
  std::vector<uint64_t> join_subsets;
  for (int d = 0; d < index_.num_plans(); ++d) {
    AppendJoinSubsets(*diagram.plan(index_.plan_id(d)).root, &join_subsets);
  }
  SubsetRowTable rows(card, std::move(join_subsets));
  std::vector<PlanRecoster> recosters;
  recosters.reserve(index_.num_plans());
  est_cost_.resize(index_.num_plans());
  for (int d = 0; d < index_.num_plans(); ++d) {
    recosters.emplace_back(diagram.plan(index_.plan_id(d)).root,
                           opt->cost_model(), card, rows);
    est_cost_[d].resize(n);
  }
  DimVector dims;
  for (uint64_t i = 0; i < n; ++i) {
    grid.SelectivityAt(i, &dims);
    sel.Inject(dims);
    rows.Refresh(sel);
    for (int d = 0; d < index_.num_plans(); ++d) {
      est_cost_[d][i] = recosters[d].CostAt(sel);
    }
  }

  // Safe plan for degraded-mode serving: the bouquet plan whose worst-case
  // actual cost over the ESS is smallest. est_cost_ is already materialized,
  // so this is one scan; RunSafe then serves in O(1).
  safe_budget_ = std::numeric_limits<double>::infinity();
  for (int d = 0; d < index_.num_plans(); ++d) {
    double worst = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      worst = std::max(worst, ActualCost(index_.plan_id(d), i));
    }
    if (worst < safe_budget_) {
      safe_budget_ = worst;
      safe_plan_ = index_.plan_id(d);
    }
  }
}

int BouquetSimulator::DenseIndex(int plan_id) const {
  const int d = index_.dense(plan_id);
  assert(d >= 0 && "plan not in bouquet");
  return d;
}

double BouquetSimulator::EstimatedCost(int plan_id, uint64_t point) const {
  return est_cost_[DenseIndex(plan_id)][point];
}

double BouquetSimulator::ModelErrorFactor(int plan_id, uint64_t point) const {
  if (options_.model_error_delta <= 0.0) return 1.0;
  // Deterministic uniform draw in [-1, 1], mapped to (1+delta)^u.
  const uint64_t h = MixHash(static_cast<uint64_t>(plan_id) + 1, point);
  const double u = 2.0 * (static_cast<double>(h >> 11) * 0x1.0p-53) - 1.0;
  return std::pow(1.0 + options_.model_error_delta, u);
}

double BouquetSimulator::ActualCost(int plan_id, uint64_t point) const {
  return EstimatedCost(plan_id, point) * ModelErrorFactor(plan_id, point);
}

double BouquetSimulator::ActualOptimal(uint64_t point) const {
  const double pic = diagram_->cost_at(point);
  if (options_.model_error_delta <= 0.0) return pic;
  return pic * ModelErrorFactor(diagram_->plan_at(point), point);
}

SimResult BouquetSimulator::RunBasic(uint64_t qa) const {
  SimResult res;
  int last_plan = -1;
  double last_progress = 0.0;

  for (size_t k = 0; k < bouquet_->contours.size(); ++k) {
    const BouquetContour& contour = bouquet_->contours[k];
    // Execute one plan at this contour's budget; true once the query
    // completes.
    auto execute = [&](int plan) {
      const double c = ActualCost(plan, qa);
      const double prior =
          (options_.continue_same_plan && plan == last_plan) ? last_progress
                                                             : 0.0;
      ++res.num_executions;
      SimStep step;
      step.contour = static_cast<int>(k);
      step.plan_id = plan;
      step.budget = contour.budget;
      if (c <= contour.budget * (1.0 + kEps)) {
        step.charged = c - prior;
        step.completed = true;
        res.total_cost += step.charged;
        res.steps.push_back(step);
        res.completed = true;
        res.final_plan = plan;
        res.final_contour = static_cast<int>(k);
        return true;
      }
      step.charged = contour.budget - prior;
      res.total_cost += step.charged;
      res.steps.push_back(step);
      last_plan = plan;
      last_progress = contour.budget;
      return false;
    };
    // Order: resume the previously-running plan first when present, then
    // the rest in contour order.
    const std::vector<int>& plans = contour.plan_ids;
    const size_t resumed = static_cast<size_t>(
        std::find(plans.begin(), plans.end(), last_plan) - plans.begin());
    if (resumed < plans.size() && execute(plans[resumed])) return res;
    for (size_t i = 0; i < plans.size(); ++i) {
      if (i != resumed && execute(plans[i])) return res;
    }
  }

  // Guarantee violated (should not happen): fall back to the optimal plan.
  res.fallback_used = true;
  res.total_cost += ActualOptimal(qa);
  res.completed = true;
  res.final_plan = diagram_->plan_at(qa);
  res.final_contour = static_cast<int>(bouquet_->contours.size()) - 1;
  return res;
}

SimResult BouquetSimulator::RunSafe(uint64_t qa) const {
  SimResult res;
  assert(safe_plan_ >= 0 && "bouquet has no plans");
  SimStep step;
  step.contour = static_cast<int>(bouquet_->contours.size()) - 1;
  step.plan_id = safe_plan_;
  step.budget = safe_budget_;
  step.charged = ActualCost(safe_plan_, qa);
  step.completed = true;
  res.steps.push_back(step);
  res.total_cost = step.charged;
  res.num_executions = 1;
  res.completed = true;
  res.final_plan = safe_plan_;
  res.final_contour = step.contour;
  return res;
}

int BouquetSimulator::PickPlan(const std::vector<int>& pool,
                               uint64_t qrun_linear,
                               const std::vector<bool>& dim_learned) const {
  assert(!pool.empty());
  // Cheapest cost-equivalence group at q_run, then deepest error node among
  // not-yet-learned dimensions.
  double min_cost = std::numeric_limits<double>::infinity();
  for (int dense : pool) {
    min_cost = std::min(min_cost, est_cost_[dense][qrun_linear]);
  }
  const double cutoff = min_cost * (1.0 + options_.cost_group_width);
  int best = pool.front();
  int best_depth = -2;
  for (int dense : pool) {
    if (est_cost_[dense][qrun_linear] > cutoff) continue;
    int depth = -1;
    index_.DeepestUnlearned(dense, dim_learned, &depth);
    if (depth > best_depth) {
      best_depth = depth;
      best = dense;
    }
  }
  return best;
}

SimResult BouquetSimulator::RunOptimized(uint64_t qa) const {
  return RunOptimizedFrom(qa, GridPoint(diagram_->grid().dims(), 0), 0);
}

SimResult BouquetSimulator::RunOptimizedWarm(uint64_t qa,
                                             int start_contour) const {
  return RunOptimizedFrom(
      qa, GridPoint(diagram_->grid().dims(), 0),
      static_cast<size_t>(std::max(0, start_contour)));
}

SimResult BouquetSimulator::RunOptimizedSeeded(uint64_t qa,
                                               const GridPoint& seed) const {
  // Clamp the seed into the first quadrant of q_a so a (contract-violating)
  // over-estimate degrades to partial seeding instead of losing the
  // completion guarantee.
  const EssGrid& grid = diagram_->grid();
  const GridPoint qa_pt = grid.PointAt(qa);
  GridPoint start = seed;
  for (size_t d = 0; d < start.size(); ++d) {
    start[d] = std::min(start[d], qa_pt[d]);
  }
  return RunOptimizedFrom(qa, std::move(start), 0);
}

SimResult BouquetSimulator::RunOptimizedFrom(uint64_t qa, GridPoint qrun,
                                             size_t start_contour) const {
  SimResult res;
  const EssGrid& grid = diagram_->grid();
  const GridPoint qa_pt = grid.PointAt(qa);
  const int dims = grid.dims();

  std::vector<bool> dim_learned(dims, false);
  for (int d = 0; d < dims; ++d) dim_learned[d] = (qa_pt[d] == qrun[d]);

  int last_plan = -1;
  double last_progress = 0.0;
  ContourIndex::Scratch scratch(index_);

  // Clamp to the LAST contour, not one past it: a warm start beyond the
  // ladder still has to execute the Cmax contour to complete.
  size_t k = bouquet_->contours.empty()
                 ? 0
                 : std::min(start_contour, bouquet_->contours.size() - 1);
  res.start_contour = static_cast<int>(k);
  while (k < bouquet_->contours.size()) {
    const double budget = bouquet_->contours[k].budget;

    // Early skip: even the optimal plan at the (lower-bound) q_run exceeds
    // this contour's budget, so nothing here can complete.
    if (diagram_->cost_at(grid.LinearIndex(qrun)) > budget * (1.0 + kEps)) {
      ++k;
      continue;
    }

    scratch.ResetExcluded();
    bool advanced = false;
    while (!advanced) {
      // Candidates: plans with at least one contour point in the first
      // quadrant of q_run, not yet executed on this contour; axis plans:
      // those with a point on an axis through q_run.
      index_.Candidates(k, qrun.data(), /*want_axis=*/true, &scratch);
      if (scratch.candidates.empty()) {
        ++k;
        break;
      }

      const uint64_t qrun_linear = grid.LinearIndex(qrun);
      const int dense = PickPlan(
          scratch.axis.empty() ? scratch.candidates : scratch.axis,
          qrun_linear, dim_learned);
      const int plan = index_.plan_id(dense);
      // Learning dimension: deepest error node among unlearned dims.
      int learn_depth = -1;
      const int learn_dim =
          index_.DeepestUnlearned(dense, dim_learned, &learn_depth);

      const double c = ActualCost(plan, qa);
      const double prior =
          (options_.continue_same_plan && plan == last_plan) ? last_progress
                                                             : 0.0;
      ++res.num_executions;
      SimStep step;
      step.contour = static_cast<int>(k);
      step.plan_id = plan;
      step.budget = budget;
      step.learned_dim = learn_dim;
      if (c <= budget * (1.0 + kEps)) {
        step.charged = c - prior;
        step.completed = true;
        res.total_cost += step.charged;
        res.steps.push_back(step);
        res.qrun_trace.push_back(qrun);
        res.completed = true;
        res.final_plan = plan;
        res.final_contour = static_cast<int>(k);
        return res;
      }
      step.charged = budget - prior;
      res.total_cost += step.charged;
      res.steps.push_back(step);
      last_plan = plan;
      last_progress = budget;
      scratch.Exclude(dense);

      // Spill-based learning: move q_run along the learning dimension to the
      // furthest grid index still within budget (capped at the truth).
      if (learn_dim >= 0) {
        int idx = qrun[learn_dim];
        for (int trial = idx + 1; trial <= qa_pt[learn_dim]; ++trial) {
          const uint64_t pt = grid.LinearWithDim(qrun_linear, learn_dim, trial);
          if (est_cost_[dense][pt] > budget * (1.0 + kEps)) break;
          idx = trial;
        }
        qrun[learn_dim] = idx;
        if (idx == qa_pt[learn_dim]) dim_learned[learn_dim] = true;
      }
      res.qrun_trace.push_back(qrun);

      // Early contour change: optimal cost at q_run already exceeds the
      // current budget.
      if (diagram_->cost_at(grid.LinearIndex(qrun)) >
          budget * (1.0 + kEps)) {
        ++k;
        advanced = true;
      }
    }
  }

  // Guarantee violated (should not happen): fall back to the optimal plan.
  res.fallback_used = true;
  res.total_cost += ActualOptimal(qa);
  res.completed = true;
  res.final_plan = diagram_->plan_at(qa);
  res.final_contour = static_cast<int>(bouquet_->contours.size()) - 1;
  return res;
}

double BouquetSimulator::SubOpt(const SimResult& result, uint64_t qa) const {
  const double optimal = ActualOptimal(qa);
  assert(optimal > 0.0);
  return result.total_cost / optimal;
}

void BouquetSimulator::EmitTrace(const SimResult& result, uint64_t qa,
                                 obs::Tracer* tracer,
                                 const obs::Span* parent) const {
  if (tracer == nullptr) return;
  obs::Span run = tracer->StartSpan("sim.run", parent);
  for (const SimStep& step : result.steps) {
    obs::Span s = tracer->StartSpan("sim.step", &run);
    s.Num("contour", step.contour)
        .Num("plan_id", step.plan_id)
        .Num("budget", step.budget)
        .Num("charged", step.charged)
        .Flag("completed", step.completed)
        .Num("learned_dim", step.learned_dim);
    s.End();
  }
  run.Num("qa", static_cast<double>(qa))
      .Num("executions", result.num_executions)
      .Num("total_cost_units", result.total_cost)
      .Num("final_plan", result.final_plan)
      .Num("subopt", SubOpt(result, qa))
      .Flag("completed", result.completed)
      .Flag("fallback", result.fallback_used);
  run.End();
}

}  // namespace bouquet
