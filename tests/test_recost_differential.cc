// Differential guard for the incremental POSP fast path's core assumption:
// RecostPlanTotal reproduces the DP enumerator's cost *bit-for-bit* for
// every plan the enumerator materializes, at every selectivity assignment.
// (The fast path certifies optimality by comparing a recost against a DP
// lower bound with exact float equality as the fixpoint; any re-association
// between the two derivations would silently disable or — worse —
// mis-certify skips.)
//
// The incremental costers add a second invariant, history independence: a
// long-lived DpLowerBound or PlanRecoster returns the same bits as a fresh
// one at every point, whatever points it saw before.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ess/ess_grid.h"
#include "ess/posp_generator.h"
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

// At every visited point: a long-lived bound's value and ambiguity flag,
// and each POSP plan's long-lived recoster, equal fresh instances (and the
// tree-walk recost) bit for bit.
void CheckHistoryIndependence(const std::string& name, const QuerySpec& query,
                              const Catalog& catalog, const EssGrid& grid) {
  const CostParams params = CostParams::Postgres();
  const CostModel cm(params);
  const PlanDiagram diagram = GeneratePosp(query, catalog, params, grid);
  const CardinalityContext card(query, catalog);
  SelectivityResolver sel(query, catalog);
  DimVector sels;
  for (int kind = 0; kind < 3; ++kind) {
    DpLowerBound bound(query, catalog, cm);
    std::vector<PlanRecoster> recosters;
    for (int p = 0; p < diagram.num_plans(); ++p) {
      recosters.emplace_back(diagram.plan(p).root, cm, card);
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
      for (int p = 0; p < diagram.num_plans(); ++p) {
        const double c = recosters[p].CostAt(sel);
        PlanRecoster fresh_rec(diagram.plan(p).root, cm, card);
        ASSERT_EQ(Bits(c), Bits(fresh_rec.CostAt(sel)))
            << name << " order " << kind << ": plan " << p << " at point "
            << i;
        ASSERT_EQ(Bits(c), Bits(RecostPlanTotal(*diagram.plan(p).root, cm,
                                                sel, card)))
            << name << " order " << kind << ": plan " << p << " at point "
            << i << " vs the tree walk";
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

}  // namespace
}  // namespace bouquet
