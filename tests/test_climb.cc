// Tests for bouquet/climb: the contour-climb policy shared by the simulator
// and the driver, driven through a scripted backend over a hand-built
// bouquet. The backend answers q_run, the learned flags and plan costs from
// a script and records every call, so each test pins the exact order of
// executions, crossings and the fallback that the policy produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "bouquet/climb.h"
#include "bouquet/contour_index.h"

namespace bouquet {
namespace {

PlanNodeRef Scan(int table, std::vector<int> filters) {
  auto n = std::make_shared<PlanNode>();
  n->op = OpType::kSeqScan;
  n->table_idx = table;
  n->filter_idxs = std::move(filters);
  return n;
}

PlanNodeRef Join(PlanNodeRef left, PlanNodeRef right) {
  auto n = std::make_shared<PlanNode>();
  n->op = OpType::kHashJoin;
  n->left = std::move(left);
  n->right = std::move(right);
  return n;
}

// A 2D ESS (two selection error dimensions, 4x4 grid) with four plans whose
// error nodes sit at different depths, and a three-contour bouquet:
//   contour 0: (0,1) A, (1,0) B
//   contour 1: (0,3) D, (1,2) C, (2,1) B, (3,0) A
//   contour 2: (3,3) D
// Error-node depths (dim 0, dim 1): A (2,1), B (1,2), C (1,1), D (1,1).
// Plan ids follow the names (A = 0), and so do the dense ids.
struct Ladder {
  enum : int { A = 0, B = 1, C = 2, D = 3 };

  Ladder() : query(MakeQuery()), grid(query, {4, 4}), diagram(&grid) {
    const PlanNodeRef roots[] = {
        Join(Join(Scan(0, {0}), Scan(1, {})), Scan(2, {1})),  // A
        Join(Join(Scan(0, {1}), Scan(1, {})), Scan(2, {0})),  // B
        Join(Scan(0, {0}), Scan(1, {1})),                     // C
        Join(Scan(0, {0, 1}), Scan(1, {})),                   // D
    };
    const char* names[] = {"A", "B", "C", "D"};
    for (int p = 0; p < 4; ++p) {
      Plan plan;
      plan.root = roots[p];
      plan.signature = names[p];
      EXPECT_EQ(diagram.InternPlan(plan), p);
    }
    AddContour(1.0, {{{0, 1}, A}, {{1, 0}, B}});
    AddContour(2.0, {{{0, 3}, D}, {{1, 2}, C}, {{2, 1}, B}, {{3, 0}, A}});
    AddContour(4.0, {{{3, 3}, D}});
    bouquet.plan_ids = {A, B, C, D};
    index = std::make_unique<ContourIndex>(bouquet, diagram, query);
    for (int p = 0; p < 4; ++p) EXPECT_EQ(index->dense(p), p);
  }

  static QuerySpec MakeQuery() {
    QuerySpec q;
    q.tables = {"t0", "t1", "t2"};
    for (int f = 0; f < 2; ++f) {
      ErrorDimension d;
      d.kind = DimKind::kSelection;
      d.predicate_index = f;
      q.error_dims.push_back(d);
    }
    return q;
  }

  void AddContour(double budget,
                  std::vector<std::pair<GridPoint, int>> points) {
    BouquetContour c;
    c.step_cost = budget;
    c.budget = budget;
    for (const auto& [pt, plan] : points) {
      c.points.push_back(grid.LinearIndex(pt));
      c.plan_at.push_back(plan);
      if (std::find(c.plan_ids.begin(), c.plan_ids.end(), plan) ==
          c.plan_ids.end()) {
        c.plan_ids.push_back(plan);
      }
    }
    std::sort(c.plan_ids.begin(), c.plan_ids.end());
    bouquet.contours.push_back(std::move(c));
  }

  QuerySpec query;
  EssGrid grid;
  PlanDiagram diagram;
  PlanBouquet bouquet;
  std::unique_ptr<ContourIndex> index;
};

// One backend call: Execute (contour, dense plan, learning dimension),
// Crossed (contour) or Fallback.
struct Call {
  char kind;  // 'x' execute, 'c' crossed, 'f' fallback
  int contour = -1;
  int plan = -1;
  int dim = -1;
  bool operator==(const Call& o) const {
    return kind == o.kind && contour == o.contour && plan == o.plan &&
           dim == o.dim;
  }
};

std::ostream& operator<<(std::ostream& os, const Call& c) {
  return os << c.kind << "(" << c.contour << "," << c.plan << "," << c.dim
            << ")";
}

Call X(int k, int plan, int dim = -1) { return Call{'x', k, plan, dim}; }
Call Cross(int k) { return Call{'c', k}; }
Call Fall() { return Call{'f'}; }

// Scripted backend: q_run and the learned flags stay where the test put
// them, every plan costs `cost[plan]` (1 by default), and the execution
// numbered `complete_at` (0-based; -1 never) completes the query.
struct ScriptedStep {
  std::vector<int> qrun = {0, 0};
  std::vector<bool> learned_flags = {false, false};
  std::map<int, double> cost;
  int complete_at = -1;
  std::vector<Call> calls;
  int executions = 0;

  const int* lo() const { return qrun.data(); }
  const std::vector<bool>& learned() const { return learned_flags; }
  double CostAt(int dense) const {
    const auto it = cost.find(dense);
    return it == cost.end() ? 1.0 : it->second;
  }
  bool Execute(size_t k, int dense, int learn_dim) {
    calls.push_back(X(static_cast<int>(k), dense, learn_dim));
    return executions++ == complete_at;
  }
  void Crossed(size_t k) { calls.push_back(Cross(static_cast<int>(k))); }
  void Fallback() { calls.push_back(Fall()); }
};

TEST(ClimbTest, CrossesEachContourWhoseScanIsEmpty) {
  // q_run at the max corner: only the last contour has a point in its first
  // quadrant. The climb crosses the others without executing anything.
  const Ladder l;
  ScriptedStep s;
  s.qrun = {3, 3};
  ClimbOptimized(*l.index, &s);
  EXPECT_EQ(s.calls, (std::vector<Call>{Cross(0), Cross(1),
                                        X(2, Ladder::D, 0), Cross(2),
                                        Fall()}));
}

TEST(ClimbTest, AxisPoolBeatsCheaperCandidates) {
  // From the origin, contour 1's axis plans are D (0,3) and A (3,0); C and
  // B sit off the axes. C is by far the cheapest, but the pool is the axis
  // plans, and of those A has the deepest error node. (On contour 0 both
  // plans are axis plans, so the cheap B runs first there.)
  const Ladder l;
  ScriptedStep s;
  s.cost = {{Ladder::C, 0.01}, {Ladder::B, 0.01}};
  s.complete_at = 2;
  ClimbOptimized(*l.index, &s);
  EXPECT_EQ(s.calls, (std::vector<Call>{X(0, Ladder::B, 1),
                                        X(0, Ladder::A, 0), Cross(0),
                                        X(1, Ladder::A, 0)}));
}

TEST(ClimbTest, CostGroupIsTwentyPercentAboveTheCheapest) {
  // Contour 1's pool is {D, A}; D costs 5 (depth 1), A is deeper (depth 2).
  // A joins the cheapest group only within 5 * 1.2 = 6. Contour 0 runs
  // B, then A, first.
  const Ladder l;
  for (const auto& [a_cost, want] :
       std::vector<std::pair<double, int>>{{5.9, Ladder::A},
                                           {6.1, Ladder::D}}) {
    ScriptedStep s;
    s.cost = {{Ladder::D, 5.0}, {Ladder::A, a_cost}};
    s.complete_at = 2;
    ClimbOptimized(*l.index, &s);
    ASSERT_EQ(s.calls.size(), 4u);
    EXPECT_EQ(s.calls[3].contour, 1);
    EXPECT_EQ(s.calls[3].plan, want) << "A costs " << a_cost;
  }
}

TEST(ClimbTest, DepthTieGoesToThePlanListedFirst) {
  // Dimension 0 learned: D and A both reach depth 1 in dimension 1. D's
  // point comes first on contour 1, so D runs first although A's id is
  // lower; the learning dimension is the open one. On contour 0, B is
  // deeper in dimension 1 than A, so B runs first.
  const Ladder l;
  ScriptedStep s;
  s.learned_flags = {true, false};
  s.complete_at = 3;
  ClimbOptimized(*l.index, &s);
  EXPECT_EQ(s.calls,
            (std::vector<Call>{X(0, Ladder::B, 1), X(0, Ladder::A, 1),
                               Cross(0), X(1, Ladder::D, 1),
                               X(1, Ladder::A, 1)}));
}

TEST(ClimbTest, EveryContourPlanRunsOnceBeforeTheFallback) {
  // Nothing completes and q_run never moves: each contour runs each of its
  // plans once (axis plans first, then the rest as they become the pool),
  // then the climb falls back after the last contour.
  const Ladder l;
  ScriptedStep s;
  ClimbOptimized(*l.index, &s);
  EXPECT_EQ(s.calls,
            (std::vector<Call>{X(0, Ladder::A, 0), X(0, Ladder::B, 1),
                               Cross(0), X(1, Ladder::A, 0),
                               X(1, Ladder::D, 0), X(1, Ladder::B, 1),
                               X(1, Ladder::C, 0), Cross(1),
                               X(2, Ladder::D, 0), Cross(2), Fall()}));
}

TEST(ClimbTest, BasicResumesTheLastPlanFirst) {
  // Contour 0 ends with B, so contour 1 starts with B and runs the rest in
  // contour order; the basic climb never learns.
  const Ladder l;
  ScriptedStep s;
  ClimbBasic(l.bouquet, *l.index, &s);
  EXPECT_EQ(s.calls,
            (std::vector<Call>{X(0, Ladder::A), X(0, Ladder::B), Cross(0),
                               X(1, Ladder::B), X(1, Ladder::A),
                               X(1, Ladder::C), X(1, Ladder::D), Cross(1),
                               X(2, Ladder::D), Cross(2), Fall()}));
}

TEST(ClimbTest, BasicStopsAtTheCompletingExecution) {
  const Ladder l;
  ScriptedStep s;
  s.complete_at = 2;
  ClimbBasic(l.bouquet, *l.index, &s);
  EXPECT_EQ(s.calls, (std::vector<Call>{X(0, Ladder::A), X(0, Ladder::B),
                                        Cross(0), X(1, Ladder::B)}));
}

TEST(ClimbTest, NoContoursMeansFallbackAtOnce) {
  Ladder l;
  l.bouquet.contours.clear();
  l.index = std::make_unique<ContourIndex>(l.bouquet, l.diagram, l.query);
  ScriptedStep basic, optimized;
  ClimbBasic(l.bouquet, *l.index, &basic);
  ClimbOptimized(*l.index, &optimized);
  EXPECT_EQ(basic.calls, (std::vector<Call>{Fall()}));
  EXPECT_EQ(optimized.calls, (std::vector<Call>{Fall()}));
}

}  // namespace
}  // namespace bouquet
