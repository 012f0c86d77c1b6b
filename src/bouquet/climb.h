// The contour climb of the run-time phase (Sections 4-5), written once.
//
// A climb walks the isocost ladder: on contour k it executes bouquet plans
// at the contour's budget until one completes, and crosses to contour k+1
// when none is left to try. The basic climb (Figure 7) tries every plan of
// the contour. The optimized climb (Figure 13) tries only plans with a
// contour point in the first quadrant of the running location q_run,
// prefers AxisPlans, and learns selectivities with each execution, which
// empties the scan sooner and so crosses contours early.
//
// The policy lives here; the executions live in a backend. A backend `Step`
// provides these members, and the climb calls nothing else:
//
//   const int* lo();
//       q_run as grid coordinates: the first-quadrant scan threshold.
//   const std::vector<bool>& learned();
//       per error dimension, whether its selectivity is known exactly.
//   double CostAt(int dense);
//       the estimated cost of a dense plan (ContourIndex numbering) at q_run.
//   bool Execute(size_t k, int dense, int learn_dim);
//       one execution at contour k's budget, spilled on `learn_dim` (-1: a
//       generic execution); learns what it can. True once the query has
//       completed, false otherwise.
//   void Crossed(size_t k);
//       contour k is left without the query completing.
//   void Fallback();
//       every contour was crossed: finish the query past the ladder.
//
// The basic climb calls only Execute, Crossed and Fallback. BouquetSimulator
// backs the climb with cost surfaces and grid learning, BouquetDriver with
// the executor and counter harvest. The climbs are templates over Step, so a
// simulated step is a few array reads and allocates nothing.
//
// There is no early contour skip. Contour k's points have PIC at most IC_k,
// which is within the budget, and under plan cost monotonicity a point
// p >= q_run has PIC(p) >= PIC(q_run). So when the optimal cost at q_run
// exceeds the budget, no point lies in q_run's first quadrant: the scan is
// already empty, and "cross when the scan is empty" is the whole rule.

#ifndef BOUQUET_BOUQUET_CLIMB_H_
#define BOUQUET_BOUQUET_CLIMB_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <vector>

#include "bouquet/bouquet.h"
#include "bouquet/contour_index.h"

namespace bouquet {

/// AxisPlans' cost-equivalence group (Section 5.2): plans within 20% of the
/// cheapest at q_run count as equally cheap.
inline constexpr double kCostGroupWidth = 0.2;

/// Basic climb: every plan on every contour. The plan that ran last (and
/// aborted) on the previous contour goes first, so a backend that resumes a
/// plan's progress resumes it at once; the rest follow in contour order.
template <class Step>
void ClimbBasic(const PlanBouquet& bouquet, const ContourIndex& index,
                Step* step) {
  int last = -1;  // dense plan of the last execution
  for (size_t k = 0; k < bouquet.contours.size(); ++k) {
    const std::vector<int>& plans = bouquet.contours[k].plan_ids;
    const size_t resumed = static_cast<size_t>(
        std::find(plans.begin(), plans.end(),
                  last >= 0 ? index.plan_id(last) : -1) -
        plans.begin());
    if (resumed < plans.size() && step->Execute(k, last, -1)) return;
    for (size_t i = 0; i < plans.size(); ++i) {
      if (i == resumed) continue;
      const int dense = index.dense(plans[i]);
      assert(dense >= 0 && "contour plan missing from the index");
      if (step->Execute(k, dense, -1)) return;
      last = dense;
    }
    step->Crossed(k);
  }
  step->Fallback();
}

/// Optimized climb from contour 0 (the paper's ladder, Theorem 3). On each
/// step the candidates are the contour's plans, not yet run on it, with a
/// point in the first quadrant of q_run; the pool is the candidates with a
/// point on an axis through q_run when there are any, else all of them.
/// From the pool's cheapest cost group at q_run, the plan with the deepest
/// error node among unlearned dimensions runs, spilled on that dimension;
/// a depth tie goes to the plan listed first.
template <class Step>
void ClimbOptimized(const ContourIndex& index, Step* step) {
  ContourIndex::Scratch scan(index);
  std::vector<double> cost;
  cost.reserve(static_cast<size_t>(index.num_plans()));
  for (size_t k = 0; k < index.num_contours();) {
    index.Candidates(k, step->lo(), &scan);
    if (scan.candidates.empty()) {
      step->Crossed(k);
      scan.ResetExcluded();
      ++k;
      continue;
    }
    const std::vector<int>& pool =
        scan.axis.empty() ? scan.candidates : scan.axis;
    cost.resize(pool.size());
    double min_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < pool.size(); ++i) {
      cost[i] = step->CostAt(pool[i]);
      min_cost = std::min(min_cost, cost[i]);
    }
    const double cutoff = min_cost * (1.0 + kCostGroupWidth);
    const std::vector<bool>& learned = step->learned();
    int chosen = pool.front();
    int best_depth = -2;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (cost[i] > cutoff) continue;
      int depth = -1;
      index.DeepestUnlearned(pool[i], learned, &depth);
      if (depth > best_depth) {
        best_depth = depth;
        chosen = pool[i];
      }
    }
    int depth = -1;
    const int learn_dim = index.DeepestUnlearned(chosen, learned, &depth);
    if (step->Execute(k, chosen, learn_dim)) return;
    scan.Exclude(chosen);
  }
  step->Fallback();
}

}  // namespace bouquet

#endif  // BOUQUET_BOUQUET_CLIMB_H_
