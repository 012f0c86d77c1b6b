// Cost-model-driven simulation of bouquet execution (run-time phase).
//
// The paper's headline metrics (MSO/ASO/MH, Figures 14-17) are computed over
// optimizer cost surfaces, exactly as done here: a partial execution of plan
// P with budget b at true location q_a completes iff cost_P(q_a) <= b, and
// otherwise consumes the full budget. The optimized variant additionally
// tracks the running location q_run, prunes plans outside its first quadrant,
// selects executions via the AxisPlans heuristic, models spill-based
// selectivity learning, and jumps contours early (Sections 5.1-5.3).
//
// Consecutive re-executions of the same plan resume rather than restart
// (matching the paper's 1D walkthrough where P1 runs continuously through
// IC1..IC4); disable via Options::continue_same_plan for the strictly
// restart-based accounting of the Theorem 3 analysis.

#ifndef BOUQUET_BOUQUET_SIMULATOR_H_
#define BOUQUET_BOUQUET_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "bouquet/bouquet.h"
#include "bouquet/contour_index.h"
#include "ess/plan_diagram.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"

namespace bouquet {

/// One cost-limited plan execution in a simulated run.
struct SimStep {
  int contour = 0;       ///< contour index (0-based)
  int plan_id = -1;      ///< diagram plan id
  double budget = 0.0;   ///< cost budget of this execution
  double charged = 0.0;  ///< cost actually charged
  bool completed = false;
  int learned_dim = -1;  ///< dimension spilled/learned, -1 for generic
};

/// Outcome of one simulated bouquet run.
struct SimResult {
  bool completed = false;
  bool fallback_used = false;  ///< guarantee violated (tests assert false)
  double total_cost = 0.0;
  int num_executions = 0;
  int final_plan = -1;
  int final_contour = -1;
  /// Contour the ladder actually started at (0 = cold; > 0 = warm start
  /// skipped that many cheap contours).
  int start_contour = 0;
  std::vector<SimStep> steps;
  /// Optimized runs only: q_run after each step (the running selectivity
  /// location of Section 5.2); empty for basic runs. The first-quadrant
  /// invariant requires every entry to be dominated by q_a.
  std::vector<GridPoint> qrun_trace;
};

/// Tuning knobs for the simulator.
struct SimOptions {
  bool continue_same_plan = true;
  /// Section 3.4: deterministic per-(plan,point) cost modeling error in
  /// [1/(1+delta), (1+delta)] applied to "actual" execution costs.
  double model_error_delta = 0.0;
};

/// Simulator bound to a bouquet + diagram. Precomputes the cost surface of
/// every bouquet plan over the full grid (one linear sweep of incremental
/// PlanRecosters sharing one row table over the plans' join subsets, which
/// also finds the safe plan) and the bouquet's ContourIndex, so individual
/// runs are grid-free lookups, and a run's steps allocate nothing beyond the
/// steps and q_run trace it returns. The runs are the climb of climb.h over
/// these surfaces.
///
/// Thread-safety: construction only reads the passed QueryOptimizer's
/// query, catalog and cost model, and is single-threaded; afterwards the
/// optimizer is not retained and all state is immutable, so the const Run*/cost accessors may
/// be called from any number of threads concurrently (this is what lets
/// BouquetService share one simulator per cached template).
class BouquetSimulator {
 public:
  using Options = SimOptions;

  BouquetSimulator(const PlanBouquet& bouquet, const PlanDiagram& diagram,
                   QueryOptimizer* opt, Options options = {});

  /// Basic algorithm (Figure 7): every plan on every contour, in order.
  SimResult RunBasic(uint64_t qa) const;

  /// Optimized algorithm (Figure 13): q_run tracking + AxisPlans + spilling
  /// + early contour jumps.
  SimResult RunOptimized(uint64_t qa) const;

  /// Degraded-mode fast path for an overloaded server: one execution of the
  /// precomputed safe plan — the bouquet plan minimizing worst-case cost
  /// over the whole ESS — at its precomputed budget. Always completes, never
  /// discovers: total cost equals the safe plan's cost at q_a, bounded by
  /// safe_budget() regardless of where q_a actually lies. Trades the
  /// MSO-optimal discovery ladder for a single bounded execution.
  SimResult RunSafe(uint64_t qa) const;

  /// The precomputed safe plan (diagram plan id) and its worst-case cost
  /// bound over the ESS.
  int safe_plan() const { return safe_plan_; }
  double safe_budget() const { return safe_budget_; }

  /// Section 8 extension: when the optimizer's estimate is known to be an
  /// *under*-estimate of the true location, it seeds q_run and the starting
  /// contour, skipping the cheap discovery prefix. The caller must
  /// guarantee seed <= q_a componentwise; a violating seed voids the
  /// first-quadrant invariant (and hence the guarantee).
  SimResult RunOptimizedSeeded(uint64_t qa, const GridPoint& seed) const;

  /// Feedback-driven warm start (src/feedback/): the ladder begins at
  /// `start_contour` (clamped into [0, contours)) with q_run still at the
  /// dimension lows, so plan pruning and discovery are untouched — only the
  /// cheap prefix of the ladder is skipped. Completion is unconditional
  /// (every location inside a contour's region is dominated by one of its
  /// frontier points; see contours.h); the Theorem-3 MSO bound additionally
  /// holds whenever the feedback seed that chose `start_contour` is
  /// dominated by q_a (see feedback/warm_start.h for the clamp argument).
  SimResult RunOptimizedWarm(uint64_t qa, int start_contour) const;

  /// Sub-optimality of a run: total cost / actual optimal cost at q_a.
  double SubOpt(const SimResult& result, uint64_t qa) const;

  /// Replays a finished run into the tracer as a "sim.run" span with one
  /// "sim.step" child per SimStep (null tracer = no-op). The simulator has
  /// no wall clock of its own, so durations are zero; the value is the
  /// structure: budgets, charges, learned dims, and the final SubOpt,
  /// nested under `parent` (e.g. the service's request span).
  void EmitTrace(const SimResult& result, uint64_t qa, obs::Tracer* tracer,
                 const obs::Span* parent = nullptr) const;

  /// Estimated cost of a bouquet plan at a grid point.
  double EstimatedCost(int plan_id, uint64_t point) const;
  /// "Actual" cost: estimate distorted by the modeling-error factor.
  double ActualCost(int plan_id, uint64_t point) const;
  /// Actual optimal cost at a point (PIC distorted consistently).
  double ActualOptimal(uint64_t point) const;

  const PlanBouquet& bouquet() const { return *bouquet_; }
  const PlanDiagram& diagram() const { return *diagram_; }
  /// The bouquet's contour index, shared with the drivers that serve it.
  const ContourIndex& index() const { return index_; }

 private:
  class Backend;  // the climb's step over the cost surfaces

  int DenseIndex(int plan_id) const;
  double ModelErrorFactor(int plan_id, uint64_t point) const;
  SimResult RunOptimizedFrom(uint64_t qa, GridPoint qrun,
                             int start_contour) const;

  const PlanBouquet* bouquet_;
  const PlanDiagram* diagram_;
  Options options_;
  ContourIndex index_;
  int safe_plan_ = -1;         // argmin over bouquet plans of max actual cost
  double safe_budget_ = 0.0;   // that minmax cost (worst-case bound)
  std::vector<std::vector<double>> est_cost_;  // [dense][point]
};

}  // namespace bouquet

#endif  // BOUQUET_BOUQUET_SIMULATOR_H_
