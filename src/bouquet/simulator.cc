#include "bouquet/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "bouquet/climb.h"

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
  // Safe plan for degraded-mode serving: the bouquet plan whose worst-case
  // actual cost over the ESS is smallest, ties to the lower dense index.
  // Each plan's worst cost is tracked as its surface fills, so RunSafe then
  // serves in O(1).
  std::vector<double> worst(index_.num_plans(), 0.0);
  DimVector dims;
  for (uint64_t i = 0; i < n; ++i) {
    grid.SelectivityAt(i, &dims);
    sel.Inject(dims);
    rows.Refresh(sel);
    for (int d = 0; d < index_.num_plans(); ++d) {
      est_cost_[d][i] = recosters[d].CostAt(sel);
      worst[d] = std::max(
          worst[d], est_cost_[d][i] * ModelErrorFactor(index_.plan_id(d), i));
    }
  }
  safe_budget_ = std::numeric_limits<double>::infinity();
  for (int d = 0; d < index_.num_plans(); ++d) {
    if (worst[d] < safe_budget_) {
      safe_budget_ = worst[d];
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

// The climb's step over the cost surfaces. An execution of plan P at budget
// b completes iff P's actual cost at q_a is within b, and otherwise charges
// b, less the progress a resumed plan already made (continue_same_plan). A
// spilled execution moves q_run along its learning dimension to the
// furthest grid index still within b, capped at q_a. A basic climb has no
// q_run (`qrun` empty), so it neither learns nor records a q_run trace.
class BouquetSimulator::Backend {
 public:
  Backend(const BouquetSimulator& sim, uint64_t qa, GridPoint qrun)
      : sim_(sim),
        grid_(sim.diagram_->grid()),
        qa_(qa),
        qa_pt_(qrun.empty() ? GridPoint() : grid_.PointAt(qa)),
        qrun_(std::move(qrun)),
        qrun_linear_(qrun_.empty() ? 0 : grid_.LinearIndex(qrun_)),
        learned_(qrun_.size()) {
    for (size_t d = 0; d < qrun_.size(); ++d) {
      learned_[d] = qa_pt_[d] == qrun_[d];
    }
  }

  const int* lo() const { return qrun_.data(); }
  const std::vector<bool>& learned() const { return learned_; }
  double CostAt(int dense) const { return sim_.est_cost_[dense][qrun_linear_]; }

  bool Execute(size_t k, int dense, int learn_dim) {
    const int plan = sim_.index_.plan_id(dense);
    const double budget = sim_.bouquet_->contours[k].budget;
    const double c = sim_.ActualCost(plan, qa_);
    const double prior =
        (sim_.options_.continue_same_plan && plan == last_plan_)
            ? last_progress_
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
      if (!qrun_.empty()) res.qrun_trace.push_back(qrun_);
      res.completed = true;
      res.final_plan = plan;
      res.final_contour = static_cast<int>(k);
      return true;
    }
    step.charged = budget - prior;
    res.total_cost += step.charged;
    res.steps.push_back(step);
    last_plan_ = plan;
    last_progress_ = budget;
    if (learn_dim >= 0) {
      int idx = qrun_[learn_dim];
      for (int trial = idx + 1; trial <= qa_pt_[learn_dim]; ++trial) {
        const uint64_t pt = grid_.LinearWithDim(qrun_linear_, learn_dim, trial);
        if (sim_.est_cost_[dense][pt] > budget * (1.0 + kEps)) break;
        idx = trial;
      }
      qrun_linear_ = grid_.LinearWithDim(qrun_linear_, learn_dim, idx);
      qrun_[learn_dim] = idx;
      if (idx == qa_pt_[learn_dim]) learned_[learn_dim] = true;
    }
    if (!qrun_.empty()) res.qrun_trace.push_back(qrun_);
    return false;
  }

  void Crossed(size_t) {}

  // Guarantee violated (should not happen): fall back to the optimal plan.
  void Fallback() {
    res.fallback_used = true;
    res.total_cost += sim_.ActualOptimal(qa_);
    res.completed = true;
    res.final_plan = sim_.diagram_->plan_at(qa_);
    res.final_contour = static_cast<int>(sim_.bouquet_->contours.size()) - 1;
  }

  SimResult res;

 private:
  const BouquetSimulator& sim_;
  const EssGrid& grid_;
  const uint64_t qa_;
  const GridPoint qa_pt_;
  GridPoint qrun_;
  uint64_t qrun_linear_;
  std::vector<bool> learned_;
  int last_plan_ = -1;
  double last_progress_ = 0.0;
};

SimResult BouquetSimulator::RunBasic(uint64_t qa) const {
  Backend b(*this, qa, GridPoint());
  ClimbBasic(*bouquet_, index_, &b);
  return std::move(b.res);
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

SimResult BouquetSimulator::RunOptimized(uint64_t qa) const {
  return RunOptimizedFrom(qa, GridPoint(diagram_->grid().dims(), 0), 0);
}

SimResult BouquetSimulator::RunOptimizedWarm(uint64_t qa,
                                             int start_contour) const {
  return RunOptimizedFrom(qa, GridPoint(diagram_->grid().dims(), 0),
                          start_contour);
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
                                             int start_contour) const {
  Backend b(*this, qa, std::move(qrun));
  b.res.start_contour = static_cast<int>(
      StartContour(start_contour, bouquet_->contours.size()));
  ClimbOptimized(index_, start_contour, &b);
  return std::move(b.res);
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
