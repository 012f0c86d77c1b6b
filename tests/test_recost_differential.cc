// Differential guard for the incremental POSP fast path's core assumption:
// RecostPlanTotal reproduces the DP enumerator's cost *bit-for-bit* for
// every plan the enumerator materializes, at every selectivity assignment.
// (The fast path certifies optimality by comparing a recost against a DP
// lower bound with exact float equality as the fixpoint; any re-association
// between the two derivations would silently disable or — worse —
// mis-certify skips.)
//
// The incremental costers add a second invariant, history independence: at
// every point, whatever points it saw before, a long-lived DpLowerBound
// returns a fresh one's bits and a long-lived PlanRecoster the tree walk's.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ess/ess_grid.h"
#include "ess/posp_generator.h"
#include "optimizer/cardinality.h"
#include "optimizer/dp_bound.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "workloads/spaces.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

// Deterministic 64-bit mix for seeded point sampling.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// At `samples` seeded grid points: (a) the DP's winning cost equals the
// recost of its winning plan exactly; (b) every POSP plan recosted at the
// point costs at least the winner (the DP optimum is a true lower bound
// over the diagram's plan set); (c) the scalar DP bound never exceeds the
// optimum.
void CheckSpace(const QuerySpec& query, const Catalog& catalog,
                const EssGrid& grid, uint64_t samples, uint64_t seed) {
  const CostParams params = CostParams::Postgres();
  const PlanDiagram diagram = GeneratePosp(query, catalog, params, grid);
  QueryOptimizer opt(query, catalog, params);
  DpLowerBound bound(query, catalog, CostModel(params));

  const uint64_t n = grid.num_points();
  DimVector sels;
  for (uint64_t k = 0; k < samples; ++k) {
    const uint64_t i = Mix64(seed ^ k) % n;
    grid.SelectivityAt(i, &sels);
    const Plan p = opt.OptimizeAt(sels);
    const double direct = opt.CostPlanAt(*p.root, sels);
    EXPECT_EQ(p.cost, direct)
        << "recost diverged from DP cost at point " << i;
    for (int pl = 0; pl < diagram.num_plans(); ++pl) {
      const double c = diagram.plan(pl).root
                           ? opt.CostPlanAt(*diagram.plan(pl).root, sels)
                           : 0.0;
      EXPECT_GE(c, p.cost) << "plan " << pl << " undercut the DP optimum at "
                           << "point " << i;
    }
    const double lb = bound.BoundAt(sels);
    EXPECT_LE(lb, p.cost) << "DP bound exceeded the optimum at point " << i;
  }
}

TEST(RecostDifferentialTest, EqQuery1DAt1kSeededPoints) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const QuerySpec query = MakeEqQuery(catalog);
  const EssGrid grid(query, {1000});
  CheckSpace(query, catalog, grid, 1000, 0xD1FFE8ULL);
}

TEST(RecostDifferentialTest, Tpch2DJoinSpace) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const QuerySpec query = Make2DHQ8a(catalog);
  const EssGrid grid(query, {32, 32});
  CheckSpace(query, catalog, grid, 200, 0xBEEF5ULL);
}

TEST(RecostDifferentialTest, Tpch3DSpace) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace("3D_H_Q5", tpch, tpcds);
  const EssGrid grid(space.query, {8, 8, 8});
  CheckSpace(space.query, tpch, grid, 100, 0xC0FFEEULL);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Visit orders for the history-independence check: the POSP walk's
// axis-major order, seeded random points, and an order that keeps going
// back (point k, then k/2: immediate repeats and long jumps backwards).
std::vector<uint64_t> VisitOrder(int kind, uint64_t n, uint64_t seed) {
  std::vector<uint64_t> order;
  for (uint64_t k = 0; k < n; ++k) {
    switch (kind) {
      case 0:
        order.push_back(k);
        break;
      case 1:
        order.push_back(Mix64(seed ^ k) % n);
        break;
      default:
        order.push_back(k);
        order.push_back(k / 2);
    }
  }
  return order;
}

// At every visited point: a long-lived bound's value and ambiguity flag
// equal a fresh bound's bit for bit, and each POSP plan's long-lived
// recosters equal the tree-walk recost. Each plan has two recosters: one
// that reads the bound's row table (as the POSP fast path does) and one
// that reads a table over the plans' join subsets (as the simulator does).
void CheckHistoryIndependence(const std::string& name, const QuerySpec& query,
                              const Catalog& catalog, const EssGrid& grid) {
  const CostParams params = CostParams::Postgres();
  const CostModel cm(params);
  const PlanDiagram diagram = GeneratePosp(query, catalog, params, grid);
  const CardinalityContext card(query, catalog);
  SelectivityResolver sel(query, catalog);
  std::vector<uint64_t> join_subsets;
  for (int p = 0; p < diagram.num_plans(); ++p) {
    AppendJoinSubsets(*diagram.plan(p).root, &join_subsets);
  }
  DimVector sels;
  for (int kind = 0; kind < 3; ++kind) {
    DpLowerBound bound(query, catalog, cm);
    SubsetRowTable rows(card, join_subsets);
    std::vector<PlanRecoster> bound_readers, table_readers;
    for (int p = 0; p < diagram.num_plans(); ++p) {
      bound_readers.emplace_back(diagram.plan(p).root, cm, card,
                                 bound.subset_rows());
      table_readers.emplace_back(diagram.plan(p).root, cm, card, rows);
    }
    for (uint64_t i : VisitOrder(kind, grid.num_points(), 0x5EEDULL)) {
      grid.SelectivityAt(i, &sels);
      bool amb = false;
      const double lb = bound.BoundAt(sels, &amb);
      DpLowerBound fresh(query, catalog, cm);
      bool fresh_amb = false;
      const double fresh_lb = fresh.BoundAt(sels, &fresh_amb);
      ASSERT_EQ(Bits(lb), Bits(fresh_lb))
          << name << " order " << kind << ": bound at point " << i;
      ASSERT_EQ(amb, fresh_amb)
          << name << " order " << kind << ": ambiguity at point " << i;

      sel.Inject(sels);
      rows.Refresh(sel);
      for (int p = 0; p < diagram.num_plans(); ++p) {
        const double ref =
            RecostPlanTotal(*diagram.plan(p).root, cm, sel, card);
        ASSERT_EQ(Bits(ref), Bits(bound_readers[p].CostAt(sel)))
            << name << " order " << kind << ": plan " << p << " at point "
            << i << " reading the bound's rows";
        ASSERT_EQ(Bits(ref), Bits(table_readers[p].CostAt(sel)))
            << name << " order " << kind << ": plan " << p << " at point "
            << i << " reading the plans' row table";
      }
    }
  }
}

TEST(HistoryIndependenceTest, EqQuery) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const QuerySpec query = MakeEqQuery(catalog);
  CheckHistoryIndependence("EQ", query, catalog, EssGrid(query, {64}));
}

class HistoryIndependenceSweep
    : public ::testing::TestWithParam<std::string> {};

TEST_P(HistoryIndependenceSweep, LongLivedEqualsFresh) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace(GetParam(), tpch, tpcds);
  const Catalog& cat = space.benchmark == "H" ? tpch : tpcds;
  const int dims = space.query.NumDims();
  const int res = dims == 3 ? 6 : dims == 4 ? 4 : 3;
  CheckHistoryIndependence(space.name, space.query, cat,
                           EssGrid(space.query, std::vector<int>(dims, res)));
}

INSTANTIATE_TEST_SUITE_P(
    TableTwoSpaces, HistoryIndependenceSweep,
    ::testing::Values("3D_H_Q5", "3D_H_Q7", "4D_H_Q8", "5D_H_Q7", "3D_DS_Q15",
                      "3D_DS_Q96", "4D_DS_Q7", "4D_DS_Q26", "4D_DS_Q91",
                      "5D_DS_Q19"));

// A recoster whose row table lacks one of the plan's join subsets would read
// another subset's rows; it aborts at construction instead, in every build.
TEST(PlanRecosterDeathTest, RowTableMissingAJoinSubsetAborts) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const QuerySpec query = MakeEqQuery(catalog);
  const CostParams params = CostParams::Postgres();
  QueryOptimizer opt(query, catalog, params);
  const Plan plan = opt.OptimizeAt({0.01});
  std::vector<uint64_t> join_subsets;
  AppendJoinSubsets(*plan.root, &join_subsets);
  ASSERT_FALSE(join_subsets.empty());
  join_subsets.pop_back();  // the root join's subset
  const CardinalityContext card(query, catalog);
  const SubsetRowTable rows(card, join_subsets);
  EXPECT_DEATH(PlanRecoster(plan.root, CostModel(params), card, rows),
               "row table lacks join subset");
}

}  // namespace
}  // namespace bouquet
