// Tests for ess/posp_generator and ess/pic: exhaustive generation,
// parallel-shard equivalence, and the PIC monotonicity property.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "ess/pic.h"
#include "ess/posp_generator.h"
#include "optimizer/cardinality.h"
#include "optimizer/dp_bound.h"
#include "optimizer/optimizer.h"
#include "query/join_graph.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

class PospTest : public ::testing::Test {
 protected:
  PospTest()
      : catalog_(MakeTpchCatalog(1.0)),
        query_(MakeEqQuery(catalog_)),
        grid_(query_, {50}) {}
  Catalog catalog_;
  QuerySpec query_;
  EssGrid grid_;
};

TEST_F(PospTest, CoversEveryPoint) {
  const PlanDiagram d =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  for (uint64_t i = 0; i < grid_.num_points(); ++i) {
    EXPECT_GE(d.plan_at(i), 0);
    EXPECT_GT(d.cost_at(i), 0.0);
  }
  EXPECT_GE(d.num_plans(), 2);
}

TEST_F(PospTest, CostsMatchDirectOptimization) {
  const PlanDiagram d =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  for (uint64_t i = 0; i < grid_.num_points(); i += 7) {
    const Plan p = opt.OptimizeAt(grid_.SelectivityAt(i));
    EXPECT_NEAR(d.cost_at(i), p.cost, p.cost * 1e-9);
    EXPECT_EQ(d.plan(d.plan_at(i)).signature, p.signature);
  }
}

TEST_F(PospTest, StatsReported) {
  PospStats stats;
  GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_, PospOptions{},
               &stats);
  // Every point is served by either a full DP or the recost fast path.
  EXPECT_EQ(stats.dp_calls + stats.recost_hits,
            static_cast<long long>(grid_.num_points()));
  EXPECT_GT(stats.recost_hits, 0);
  EXPECT_EQ(stats.audit_failures, 0);
  EXPECT_EQ(stats.shards, 1);
  EXPECT_GE(stats.wall_seconds, 0.0);

  // Memoryless mode restores the historical one-DP-per-point behavior.
  PospOptions memoryless;
  memoryless.incremental = false;
  PospStats mstats;
  GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_, memoryless,
               &mstats);
  EXPECT_EQ(mstats.dp_calls, static_cast<long long>(grid_.num_points()));
  EXPECT_EQ(mstats.recost_hits, 0);
  EXPECT_EQ(mstats.audit_checks, 0);
}

TEST_F(PospTest, IncrementalMatchesMemoryless) {
  PospOptions memoryless;
  memoryless.incremental = false;
  const PlanDiagram reference = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid_, memoryless);
  PospStats stats;
  const PlanDiagram incremental = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid_, PospOptions{}, &stats);
  ASSERT_EQ(reference.num_plans(), incremental.num_plans());
  for (int p = 0; p < reference.num_plans(); ++p) {
    EXPECT_EQ(reference.plan(p).signature, incremental.plan(p).signature);
  }
  for (uint64_t i = 0; i < grid_.num_points(); ++i) {
    EXPECT_EQ(reference.plan_at(i), incremental.plan_at(i));
    // Bit-exact, not approximate: skips only fire on proven equality.
    EXPECT_EQ(reference.cost_at(i), incremental.cost_at(i));
  }
  EXPECT_GT(stats.recost_hits, 0);
}

TEST_F(PospTest, AuditSamplingRunsAndPasses) {
  PospOptions audited;
  audited.audit_fraction = 1.0;  // audit every skipped point
  PospStats stats;
  const PlanDiagram d = GeneratePosp(query_, catalog_, CostParams::Postgres(),
                                     grid_, audited, &stats);
  EXPECT_GT(stats.recost_hits, 0);
  EXPECT_EQ(stats.audit_checks, stats.recost_hits);
  EXPECT_EQ(stats.audit_failures, 0);

  PospOptions unaudited;
  unaudited.audit_fraction = 0.0;
  PospStats ustats;
  const PlanDiagram d2 = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid_, unaudited, &ustats);
  EXPECT_EQ(ustats.audit_checks, 0);
  for (uint64_t i = 0; i < grid_.num_points(); ++i) {
    EXPECT_EQ(d.cost_at(i), d2.cost_at(i));
    EXPECT_EQ(d.plan_at(i), d2.plan_at(i));
  }
}

TEST_F(PospTest, ParallelEqualsSerial) {
  const PlanDiagram serial =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_,
                   PospOptions{1});
  PospOptions par;
  par.num_threads = 4;
  const PlanDiagram parallel =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_, par);
  for (uint64_t i = 0; i < grid_.num_points(); ++i) {
    EXPECT_DOUBLE_EQ(serial.cost_at(i), parallel.cost_at(i));
    EXPECT_EQ(serial.plan(serial.plan_at(i)).signature,
              parallel.plan(parallel.plan_at(i)).signature);
  }
}

TEST_F(PospTest, PoolShardingNeverCreatesSubMinimumTails) {
  // Regression: 65 points with a 16-point shard floor used to produce a
  // 5th single-point tail shard (ceil-chunking); the shard count must now
  // be clamped so every shard gets at least min_shard_points.
  const EssGrid grid(query_, {65});
  ThreadPool pool(3);
  PospOptions pooled;
  pooled.pool = &pool;
  pooled.min_shard_points = 16;
  PospStats stats;
  const PlanDiagram d = GeneratePosp(query_, catalog_, CostParams::Postgres(),
                                     grid, pooled, &stats);
  EXPECT_GT(stats.shards, 1);
  EXPECT_LE(stats.shards,
            static_cast<long long>(grid.num_points() / 16));
  const PlanDiagram serial =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid);
  for (uint64_t i = 0; i < grid.num_points(); ++i) {
    EXPECT_EQ(serial.cost_at(i), d.cost_at(i));
    EXPECT_EQ(serial.plan(serial.plan_at(i)).signature,
              d.plan(d.plan_at(i)).signature);
  }
}

TEST_F(PospTest, PicMonotone1D) {
  const PlanDiagram d =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  EXPECT_TRUE(IsPicMonotone(d));
  EXPECT_EQ(CountPicViolations(d), 0);
}

TEST_F(PospTest, PicSliceShape) {
  const PlanDiagram d =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid_);
  const auto slice = PicSlice(d, 0, GridPoint{0});
  ASSERT_EQ(slice.size(), 50u);
  EXPECT_DOUBLE_EQ(slice.front().cost, d.Cmin());
  EXPECT_DOUBLE_EQ(slice.back().cost, d.Cmax());
  for (size_t i = 1; i < slice.size(); ++i) {
    EXPECT_GE(slice[i].cost, slice[i - 1].cost * (1 - 1e-9));
    EXPECT_GT(slice[i].selectivity, slice[i - 1].selectivity);
  }
}

// The bound's exact work counter, derived independently of DpLowerBound.
// In a serial walk BoundAt runs at every point after the first (point 0
// has no plan to recost yet): its first call computes every connected
// subset, singletons included, and each later call the connected subsets
// whose SubsetDimMask meets the dimensions that moved since the previous
// point.
TEST(PospCountersTest, BoundSubsetsFollowTheMovedDimensions) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace("3D_H_Q5", tpch, tpcds);
  const EssGrid grid(space.query, {10, 10, 10});
  PospStats stats;
  GeneratePosp(space.query, tpch, CostParams::Postgres(), grid, PospOptions{},
               &stats);

  const JoinGraph graph(space.query);
  const CardinalityContext card(space.query, tpch);
  std::vector<uint32_t> masks;  // per connected subset
  for (uint64_t s = 1; s < (uint64_t{1} << space.query.tables.size()); ++s) {
    if (graph.IsConnectedSubset(s)) masks.push_back(card.SubsetDimMask(s));
  }
  long long expected = static_cast<long long>(masks.size());
  DimVector prev, cur;
  grid.SelectivityAt(1, &prev);
  for (uint64_t i = 2; i < grid.num_points(); ++i) {
    grid.SelectivityAt(i, &cur);
    uint32_t moved = 0;
    for (int d = 0; d < grid.dims(); ++d) {
      if (cur[d] != prev[d]) moved |= uint32_t{1} << d;
    }
    for (uint32_t m : masks) expected += (m & moved) != 0 ? 1 : 0;
    prev = cur;
  }
  EXPECT_EQ(stats.bound_subsets, expected);
  // Pinned: a change here means the bound does more (or less) work per
  // point than the moved-dimension rule allows.
  EXPECT_EQ(stats.bound_subsets, 5434);
  EXPECT_EQ(stats.dp_calls, 96);
  // The DP's invariant-subset memo serves the same subproblems whatever the
  // fast path's candidate order.
  EXPECT_EQ(stats.memo_hits, 972);
  // Nodes the fast path's recosters compute under its candidate order: the
  // previous winner, then the winners one step back on each axis, then the
  // rest, newest first.
  EXPECT_EQ(stats.recost_nodes, 12810);

  PospOptions memoryless;
  memoryless.incremental = false;
  PospStats mstats;
  GeneratePosp(space.query, tpch, CostParams::Postgres(), grid, memoryless,
               &mstats);
  EXPECT_EQ(mstats.bound_subsets, 0);
  EXPECT_EQ(mstats.recost_nodes, 0);
}

// Grids with points where a plan other than the DP's reaches the DP's
// optimal cost bit for bit: one of its subtrees costs more than the DP's for
// the same subset, but adding the rest of the plan rounds both totals to the
// same double, and the bound reports no tie. A fast path that certified on
// the root's cost alone would emit that plan whenever it recosted it first
// (2 points each on 4D_DS_Q91 and 4D_H_Q8b with candidates rotated from the
// previous winner, 1 on 3D_H_Q5b with the neighbour-first order); requiring
// every subset entry of the plan to be tight emits the DP's.
struct RoundingCase {
  const char* space;
  int resolution;
};

class PospRoundingTest : public ::testing::TestWithParam<RoundingCase> {};

TEST_P(PospRoundingTest, IncrementalMatchesMemorylessWhereSubtreesRoundAway) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const std::string name = GetParam().space;
  const QuerySpec query = name == "4D_H_Q8b"   ? Make4DHQ8b(tpch)
                          : name == "3D_H_Q5b" ? Make3DHQ5b(tpch)
                                               : GetSpace(name, tpch, tpcds).query;
  const Catalog& cat = name.find("_DS_") != std::string::npos ? tpcds : tpch;
  const EssGrid grid(query,
                     std::vector<int>(query.NumDims(), GetParam().resolution));
  PospOptions memoryless;
  memoryless.incremental = false;
  const PlanDiagram reference =
      GeneratePosp(query, cat, CostParams::Postgres(), grid, memoryless);
  const PlanDiagram incremental =
      GeneratePosp(query, cat, CostParams::Postgres(), grid);
  int differing = 0;
  for (uint64_t i = 0; i < grid.num_points(); ++i) {
    const std::string& want = reference.plan(reference.plan_at(i)).signature;
    if (incremental.plan(incremental.plan_at(i)).signature != want ||
        incremental.cost_at(i) != reference.cost_at(i)) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0) << name;
}

INSTANTIATE_TEST_SUITE_P(
    KnownPoints, PospRoundingTest,
    ::testing::Values(RoundingCase{"4D_DS_Q91", 10}, RoundingCase{"4D_H_Q8b", 12},
                      RoundingCase{"3D_H_Q5b", 20}),
    [](const ::testing::TestParamInfo<RoundingCase>& info) {
      return std::string(info.param.space);
    });

// Two 40-column tables joined on 33 column pairs: 66 distinct key orders,
// more than the bound's 64-bit achievable-order masks hold. The compile
// must run one DP per point, as incremental = false does, and emit the same
// diagram; under UBSan with asserts off this also proves no mask shift
// overflows.
TEST(PospGuardTest, MoreThan64KeyOrdersCompilesWithoutTheBound) {
  std::vector<std::string> cols;
  for (int c = 0; c < 40; ++c) cols.push_back(StrPrintf("c%d", c));
  Catalog catalog;
  catalog.AddTable(Catalog::MakeTable("a", 5000, 64, cols, 500));
  catalog.AddTable(Catalog::MakeTable("b", 8000, 64, cols, 800));
  QuerySpec q;
  q.name = "wide_join";
  q.tables = {"a", "b"};
  for (int c = 0; c < 33; ++c) {
    q.joins.push_back(JoinPredicate{"a", cols[c], "b", cols[c], -1.0});
  }
  q.filters.push_back({"a", "c0", CompareOp::kLess, 7, -1.0});
  ErrorDimension d;
  d.kind = DimKind::kSelection;
  d.predicate_index = 0;
  q.error_dims.push_back(d);
  ASSERT_TRUE(q.Validate(catalog).ok());
  EXPECT_FALSE(DpLowerBound::Supports(q, catalog));

  const EssGrid grid(q, {16});
  PospStats stats;
  const PlanDiagram d_inc = GeneratePosp(q, catalog, CostParams::Postgres(),
                                         grid, PospOptions{}, &stats);
  EXPECT_EQ(stats.dp_calls, static_cast<long long>(grid.num_points()));
  EXPECT_EQ(stats.recost_hits, 0);
  EXPECT_EQ(stats.bound_subsets, 0);
  EXPECT_EQ(stats.recost_nodes, 0);

  PospOptions memoryless;
  memoryless.incremental = false;
  const PlanDiagram d_mem =
      GeneratePosp(q, catalog, CostParams::Postgres(), grid, memoryless);
  ASSERT_EQ(d_inc.num_plans(), d_mem.num_plans());
  for (uint64_t i = 0; i < grid.num_points(); ++i) {
    EXPECT_EQ(d_inc.plan_at(i), d_mem.plan_at(i));
    EXPECT_EQ(d_inc.cost_at(i), d_mem.cost_at(i));
  }

  // One join fewer is 64 orders, which the bound still supports.
  q.joins.pop_back();
  EXPECT_TRUE(DpLowerBound::Supports(q, catalog));
}

// Multi-dimensional PIC monotonicity across benchmark spaces (coarse grids).
class PicMonotoneSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(PicMonotoneSweep, Holds) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace(GetParam(), tpch, tpcds);
  const Catalog& cat = space.benchmark == "H" ? tpch : tpcds;
  const EssGrid grid(space.query,
                     std::vector<int>(space.query.NumDims(), 5));
  const PlanDiagram d =
      GeneratePosp(space.query, cat, CostParams::Postgres(), grid);
  EXPECT_EQ(CountPicViolations(d), 0) << space.name;
}

INSTANTIATE_TEST_SUITE_P(Spaces, PicMonotoneSweep,
                         ::testing::Values("3D_H_Q5", "4D_H_Q8", "3D_DS_Q96",
                                           "5D_DS_Q19"));

}  // namespace
}  // namespace bouquet
