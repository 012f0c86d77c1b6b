// Tests for bouquet/contour_index: the compile-time coordinates, dense plan
// numbering and error-node depths agree with the grid, the bouquet and the
// plan trees they were derived from, and the first-quadrant scan lists
// exactly the plans, in exactly the order, of a direct scan that decodes
// each point from its linear index.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

#include "bouquet/contour_index.h"
#include "bouquet/serialize.h"
#include "ess/posp_generator.h"
#include "optimizer/plan.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

struct Compiled {
  Compiled(const std::string& space_name, std::vector<int> res)
      : tpch(MakeTpchCatalog(1.0)),
        tpcds(MakeTpcdsCatalog(100.0)),
        space(GetSpace(space_name, tpch, tpcds)),
        grid(space.query, std::move(res)),
        diagram(GeneratePosp(space.query, tpch, CostParams::Postgres(),
                             grid)),
        opt(space.query, tpch, CostParams::Postgres()),
        bouquet(BuildBouquet(diagram, &opt)) {}

  Catalog tpch, tpcds;
  NamedSpace space;
  EssGrid grid;
  PlanDiagram diagram;
  QueryOptimizer opt;
  PlanBouquet bouquet;
};

// The scan the climbs ran before the index: decode every point, keep plans
// with a point >= lo (and, for `axis`, equal to lo in all dimensions but at
// most one) that are not excluded, in first-point order.
void DirectScan(const EssGrid& grid, const BouquetContour& contour,
                const GridPoint& lo, const std::vector<int>& excluded,
                std::vector<int>* candidates, std::vector<int>* axis) {
  candidates->clear();
  axis->clear();
  for (size_t i = 0; i < contour.points.size(); ++i) {
    const GridPoint p = grid.PointAt(contour.points[i]);
    int above = 0;
    bool quadrant = true;
    for (size_t d = 0; d < p.size(); ++d) {
      if (p[d] < lo[d]) {
        quadrant = false;
        break;
      }
      if (p[d] > lo[d]) ++above;
    }
    const int plan = contour.plan_at[i];
    if (!quadrant ||
        std::find(excluded.begin(), excluded.end(), plan) != excluded.end()) {
      continue;
    }
    if (std::find(candidates->begin(), candidates->end(), plan) ==
        candidates->end()) {
      candidates->push_back(plan);
    }
    if (above <= 1 &&
        std::find(axis->begin(), axis->end(), plan) == axis->end()) {
      axis->push_back(plan);
    }
  }
}

std::vector<int> PlanIds(const ContourIndex& index,
                         const std::vector<int>& dense) {
  std::vector<int> out;
  for (int d : dense) out.push_back(index.plan_id(d));
  return out;
}

TEST(ContourIndexTest, MirrorsGridBouquetAndPlanTrees) {
  Compiled c("3D_H_Q5", {8, 8, 8});
  const ContourIndex index(c.bouquet, c.diagram, c.space.query);
  ASSERT_EQ(index.dims(), 3);
  ASSERT_EQ(index.num_plans(), c.bouquet.cardinality());
  for (int d = 0; d < index.num_plans(); ++d) {
    EXPECT_EQ(index.plan_id(d), c.bouquet.plan_ids[d]);
    EXPECT_EQ(index.dense(index.plan_id(d)), d);
    const PlanNode& root = *c.diagram.plan(index.plan_id(d)).root;
    for (int dim = 0; dim < index.dims(); ++dim) {
      const ErrorDimension& ed = c.space.query.error_dims[dim];
      EXPECT_EQ(index.depth(d, dim),
                ErrorNodeMaxDepth(root, ed.kind == DimKind::kJoin,
                                  ed.predicate_index));
    }
  }
  EXPECT_EQ(index.dense(-1), -1);
  for (size_t k = 0; k < c.bouquet.contours.size(); ++k) {
    const BouquetContour& contour = c.bouquet.contours[k];
    ASSERT_EQ(index.num_points(k), contour.points.size());
    for (size_t i = 0; i < contour.points.size(); ++i) {
      const GridPoint p = c.grid.PointAt(contour.points[i]);
      EXPECT_TRUE(std::equal(p.begin(), p.end(), index.coords(k, i)));
      EXPECT_EQ(index.plan_id(index.dense_at(k, i)), contour.plan_at[i]);
    }
  }
}

TEST(ContourIndexTest, DeepestUnlearnedTakesFirstDeepestOpenDimension) {
  Compiled c("4D_H_Q8", {4, 4, 4, 4});
  const ContourIndex index(c.bouquet, c.diagram, c.space.query);
  for (int d = 0; d < index.num_plans(); ++d) {
    for (int mask = 0; mask < (1 << index.dims()); ++mask) {
      std::vector<bool> learned(index.dims());
      for (int dim = 0; dim < index.dims(); ++dim) {
        learned[dim] = (mask >> dim) & 1;
      }
      int want_dim = -1, want_depth = -1;
      for (int dim = 0; dim < index.dims(); ++dim) {
        if (!learned[dim] && index.depth(d, dim) > want_depth) {
          want_depth = index.depth(d, dim);
          want_dim = dim;
        }
      }
      int depth = -7;
      EXPECT_EQ(index.DeepestUnlearned(d, learned, &depth), want_dim);
      EXPECT_EQ(depth, want_depth);
    }
  }
}

// The candidate-order invariant: the climb breaks depth ties by the order
// plans enter the lists, so the indexed scan must reproduce the direct scan
// list for list, not just set for set.
TEST(ContourIndexTest, CandidatesMatchDirectScanInOrder) {
  Compiled c("5D_H_Q7", {5, 5, 5, 5, 5});
  const ContourIndex index(c.bouquet, c.diagram, c.space.query);
  ContourIndex::Scratch scratch(index);
  std::mt19937 rng(7);
  std::vector<int> want_cand, want_axis;
  int nonempty_axis = 0;
  for (size_t k = 0; k < c.bouquet.contours.size(); ++k) {
    const BouquetContour& contour = c.bouquet.contours[k];
    for (int trial = 0; trial < 200; ++trial) {
      GridPoint lo(index.dims());
      for (int d = 0; d < index.dims(); ++d) {
        lo[d] = static_cast<int>(rng() % c.grid.resolution(d));
        if (trial % 4 == 0) lo[d] = 0;  // the cold start's origin
      }
      // Exclude a random subset of the contour's plans.
      std::vector<int> excluded;
      scratch.ResetExcluded();
      for (int pid : contour.plan_ids) {
        if (rng() % 3 == 0) {
          excluded.push_back(pid);
          scratch.Exclude(index.dense(pid));
        }
      }
      DirectScan(c.grid, contour, lo, excluded, &want_cand, &want_axis);
      index.Candidates(k, lo.data(), &scratch);
      EXPECT_EQ(PlanIds(index, scratch.candidates), want_cand);
      EXPECT_EQ(PlanIds(index, scratch.axis), want_axis);
      nonempty_axis += want_axis.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(nonempty_axis, 0) << "the sweep never exercised AxisPlans";
}

TEST(ContourIndexTest, RebuiltFromSerializedBouquetIsIdentical) {
  // The index is derived, never serialized: a loaded bundle rebuilds it,
  // and the rebuild must match the compile-time one point for point.
  Compiled c("3D_H_Q7", {6, 6, 6});
  std::stringstream buf;
  ASSERT_TRUE(SaveBouquet(c.diagram, c.bouquet, buf).ok());
  auto loaded = LoadBouquet(c.space.query, buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ContourIndex a(c.bouquet, c.diagram, c.space.query);
  const ContourIndex b(*loaded->bouquet, *loaded->diagram, c.space.query);
  ASSERT_EQ(a.num_plans(), b.num_plans());
  for (int d = 0; d < a.num_plans(); ++d) {
    EXPECT_EQ(a.plan_id(d), b.plan_id(d));
    for (int dim = 0; dim < a.dims(); ++dim) {
      EXPECT_EQ(a.depth(d, dim), b.depth(d, dim));
    }
  }
  for (size_t k = 0; k < c.bouquet.contours.size(); ++k) {
    ASSERT_EQ(a.num_points(k), b.num_points(k));
    for (size_t i = 0; i < a.num_points(k); ++i) {
      EXPECT_TRUE(std::equal(a.coords(k, i), a.coords(k, i) + a.dims(),
                             b.coords(k, i)));
      EXPECT_EQ(a.dense_at(k, i), b.dense_at(k, i));
    }
  }
}

}  // namespace
}  // namespace bouquet
