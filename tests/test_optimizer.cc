// Tests for optimizer/: selectivity resolution, DP enumeration, plan
// signatures, recosting, and the PCM property.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ess/ess_grid.h"
#include "golden_digest.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_signature.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"
#include "workloads/tpcds.h"

namespace bouquet {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : catalog_(MakeTpchCatalog(1.0)), query_(MakeEqQuery(catalog_)) {}
  Catalog catalog_;
  QuerySpec query_;
};

TEST_F(OptimizerTest, CreateValidates) {
  auto ok = QueryOptimizer::Create(query_, catalog_, CostParams::Postgres());
  EXPECT_TRUE(ok.ok());
  QuerySpec bad = query_;
  bad.tables.push_back("nope");
  auto fail = QueryOptimizer::Create(bad, catalog_, CostParams::Postgres());
  EXPECT_FALSE(fail.ok());
}

TEST_F(OptimizerTest, PlanCoversAllTables) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({0.01});
  // Each table appears exactly once among the scan leaves.
  std::vector<int> seen(query_.tables.size(), 0);
  for (const PlanNode* n : CollectNodes(*plan.root)) {
    if (n->is_scan()) seen[n->table_idx]++;
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_F(OptimizerTest, EveryJoinPredicateAppliedOnce) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({0.3});
  std::vector<int> applied(query_.joins.size(), 0);
  for (const PlanNode* n : CollectNodes(*plan.root)) {
    for (int j : n->join_idxs) applied[j]++;
  }
  for (int a : applied) EXPECT_EQ(a, 1);
}

TEST_F(OptimizerTest, DeterministicSignatures) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const Plan a = opt.OptimizeAt({0.05});
  const Plan b = opt.OptimizeAt({0.05});
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
}

TEST_F(OptimizerTest, PlanShapeShiftsWithSelectivity) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const Plan lo = opt.OptimizeAt({1e-4});
  const Plan hi = opt.OptimizeAt({1.0});
  EXPECT_NE(lo.signature, hi.signature);
  EXPECT_LT(lo.cost, hi.cost);
}

TEST_F(OptimizerTest, RecostAtOwnPointMatchesOptimizerCost) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  for (double s : {1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0}) {
    const Plan plan = opt.OptimizeAt({s});
    const double recost = opt.CostPlanAt(*plan.root, {s});
    EXPECT_NEAR(recost, plan.cost, plan.cost * 1e-9) << "s=" << s;
  }
}

TEST_F(OptimizerTest, OptimalityConsistencyAcrossPoints) {
  // The DP's plan at p must be no more expensive at p than any other POSP
  // plan recosted at p.
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const std::vector<double> points = {1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0};
  std::vector<Plan> plans;
  for (double s : points) plans.push_back(opt.OptimizeAt({s}));
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      const double cross = opt.CostPlanAt(*plans[j].root, {points[i]});
      EXPECT_GE(cross, plans[i].cost * (1 - 1e-9))
          << "plan@" << points[j] << " beat optimal@" << points[i];
    }
  }
}

TEST_F(OptimizerTest, PcmOptimalCostMonotone1D) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  double prev = 0.0;
  for (double s = 1e-4; s <= 1.0; s *= 1.6) {
    const double c = opt.OptimizeAt({s}).cost;
    EXPECT_GE(c, prev * (1 - 1e-9)) << "s=" << s;
    prev = c;
  }
}

TEST_F(OptimizerTest, DefaultDimsClamped) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const DimVector d = opt.DefaultDims();
  ASSERT_EQ(d.size(), 1u);
  EXPECT_GE(d[0], query_.error_dims[0].lo);
  EXPECT_LE(d[0], query_.error_dims[0].hi);
  // The magic default for inequality predicates without constants is 1/3.
  EXPECT_NEAR(d[0], 1.0 / 3.0, 1e-9);
}

TEST_F(OptimizerTest, OptimizeDefaultUsesMagicNumber) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const Plan def = opt.OptimizeDefault();
  const Plan injected = opt.OptimizeAt({1.0 / 3.0});
  EXPECT_EQ(def.signature, injected.signature);
}

TEST_F(OptimizerTest, InvocationCounter) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const long long before = opt.invocations();
  opt.OptimizeAt({0.1});
  opt.OptimizeAt({0.2});
  EXPECT_EQ(opt.invocations(), before + 2);
}

TEST_F(OptimizerTest, InvariantSubplanMemoIsTransparent) {
  // Two optimizers over the same query: one re-optimizing many points (memo
  // warm after the first call), one fresh per point. Results must be
  // bit-identical — the memo only reuses subproblems whose costs cannot
  // depend on the injected selectivities.
  QueryOptimizer warm(query_, catalog_, CostParams::Postgres());
  const DimVector points[] = {{0.001}, {0.01}, {0.1}, {0.5}, {0.9}, {0.01}};
  for (const DimVector& dims : points) {
    QueryOptimizer fresh(query_, catalog_, CostParams::Postgres());
    const Plan a = warm.OptimizeAt(dims);
    const Plan b = fresh.OptimizeAt(dims);
    EXPECT_EQ(a.signature, b.signature);
    EXPECT_EQ(a.cost, b.cost);  // bit-exact, not approximate
    EXPECT_EQ(a.rows, b.rows);
  }
  // The 1D EqQuery's error dim touches one table; every other singleton and
  // every subset avoiding it is memoized after the first optimization.
  EXPECT_GT(warm.memo_hits(), 0);
}

TEST_F(OptimizerTest, RecostDetailAlignsPreorder) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const Plan plan = opt.OptimizeAt({0.1});
  const PlanCostDetail detail = opt.RecostPlanAt(*plan.root, {0.1});
  const auto nodes = CollectNodes(*plan.root);
  ASSERT_EQ(detail.nodes.size(), nodes.size());
  EXPECT_NEAR(detail.total_cost, detail.nodes[0].cost, 1e-9);
  // Root cardinality equals the plan's estimate.
  EXPECT_NEAR(detail.nodes[0].rows, plan.rows, plan.rows * 1e-9 + 1e-9);
}

TEST_F(OptimizerTest, SelectivityInjectionOverridesOnlyErrorDims) {
  SelectivityResolver res(query_, catalog_);
  const double join0_default = res.JoinSelectivity(0);
  res.Inject({0.42});
  EXPECT_DOUBLE_EQ(res.FilterSelectivity(0), 0.42);
  EXPECT_DOUBLE_EQ(res.JoinSelectivity(0), join0_default);
  res.ClearInjection();
  EXPECT_NEAR(res.FilterSelectivity(0), 1.0 / 3.0, 1e-12);
}

TEST_F(OptimizerTest, JoinDefaultFromNdv) {
  SelectivityResolver res(query_, catalog_);
  // part-lineitem join: 1/max(ndv(p_partkey), ndv(l_partkey)) = 1/200000.
  EXPECT_NEAR(res.JoinSelectivity(0), 1.0 / 200000.0, 1e-12);
}

TEST(OptimizerSmallTest, TwoTableJoinPicksSensibleMethod) {
  Catalog cat;
  cat.AddTable(Catalog::MakeTable("s", 100, 64, {"k"}, 100));
  cat.AddTable(Catalog::MakeTable("l", 1000000, 100, {"k", "fk"}, 1000000));
  QuerySpec q;
  q.name = "two";
  q.tables = {"s", "l"};
  q.joins = {JoinPredicate{"s", "k", "l", "fk", -1.0}};
  ErrorDimension d;
  d.kind = DimKind::kJoin;
  d.predicate_index = 0;
  d.lo = 1e-9;
  d.hi = 1e-2;
  q.error_dims = {d};
  ASSERT_TRUE(q.Validate(cat).ok());
  QueryOptimizer opt(q, cat, CostParams::Postgres());
  // Tiny join selectivity: index NL from the small side wins over scanning
  // the big side.
  const Plan lo = opt.OptimizeAt({1e-9});
  EXPECT_EQ(lo.root->op, OpType::kIndexNLJoin);
  // At the PK-FK cap the big side must be consumed wholesale: hash/merge.
  const Plan hi = opt.OptimizeAt({1e-2});
  EXPECT_TRUE(hi.root->op == OpType::kHashJoin ||
              hi.root->op == OpType::kMergeJoin);
}

// ---------------------------------------------------------------------------
// Interesting orders
// ---------------------------------------------------------------------------

class InterestingOrderTest : public ::testing::Test {
 protected:
  InterestingOrderTest() {
    catalog_.AddTable(
        Catalog::MakeTable("a", 500000, 100, {"k", "x"}, 500000));
    catalog_.AddTable(
        Catalog::MakeTable("b", 500000, 100, {"k", "y"}, 500000));
    query_.name = "order_test";
    query_.tables = {"a", "b"};
    query_.joins = {JoinPredicate{"a", "k", "b", "k", -1.0}};
    // Filters on the join column itself: index scans then emit rows sorted
    // on k, which a merge join can exploit on both sides.
    query_.filters = {
        SelectionPredicate{"a", "k", CompareOp::kLess,
                           SelectionPredicate::kNoConstant, -1.0},
        SelectionPredicate{"b", "k", CompareOp::kLess,
                           SelectionPredicate::kNoConstant, -1.0}};
    ErrorDimension d1;
    d1.kind = DimKind::kSelection;
    d1.predicate_index = 0;
    d1.lo = 1e-4;
    d1.hi = 1.0;
    ErrorDimension d2 = d1;
    d2.predicate_index = 1;
    query_.error_dims = {d1, d2};
  }
  Catalog catalog_;
  QuerySpec query_;
};

TEST_F(InterestingOrderTest, PresortedMergeJoinChosen) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  // At low-ish selectivities both sides use index scans (sorted on k);
  // the enumerator should discover the sort-free merge join.
  bool found_presorted = false;
  for (double s : {0.001, 0.003, 0.01, 0.03, 0.1}) {
    const Plan plan = opt.OptimizeAt({s, s});
    if (plan.signature.find("MJ{ss}") != std::string::npos) {
      found_presorted = true;
      // It must exploit index scans on both sides.
      EXPECT_EQ(plan.root->op, OpType::kMergeJoin);
      EXPECT_TRUE(plan.root->left_presorted);
      EXPECT_TRUE(plan.root->right_presorted);
    }
  }
  EXPECT_TRUE(found_presorted)
      << "sort-free merge join never chosen across the sweep";
}

TEST_F(InterestingOrderTest, PresortedCheaperThanSorted) {
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  // Find a sweep point where the sort-free merge join wins.
  for (double s : {0.001, 0.003, 0.01, 0.03, 0.1}) {
    const Plan plan = opt.OptimizeAt({s, s});
    if (plan.root->op != OpType::kMergeJoin || !plan.root->left_presorted) {
      continue;
    }
    // Recosting the same tree with the presorted flags cleared must cost
    // strictly more (the sorts come back).
    auto stripped = std::make_shared<PlanNode>(*plan.root);
    stripped->left_presorted = false;
    stripped->right_presorted = false;
    const double with_flags = opt.CostPlanAt(*plan.root, {s, s});
    const double without = opt.CostPlanAt(*stripped, {s, s});
    EXPECT_GT(without, with_flags) << "s=" << s;
    return;
  }
  FAIL() << "no presorted merge join found in the sweep";
}

TEST_F(InterestingOrderTest, SignatureDistinguishesPresorted) {
  auto a = std::make_shared<PlanNode>();
  a->op = OpType::kMergeJoin;
  a->join_idxs = {0};
  auto l = std::make_shared<PlanNode>();
  l->op = OpType::kSeqScan;
  l->table_idx = 0;
  auto r = std::make_shared<PlanNode>(*l);
  r->table_idx = 1;
  a->left = l;
  a->right = r;
  auto b = std::make_shared<PlanNode>(*a);
  b->left_presorted = true;
  EXPECT_NE(PlanSignature(*a), PlanSignature(*b));
}

// Sweep the PCM property across all ten benchmark spaces along each
// dimension (at a coarse resolution for speed).
struct PcmCase {
  std::string name;
};

class PcmSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PcmSweepTest, OptimalCostMonotoneAlongEveryAxis) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace(GetParam(), tpch, tpcds);
  const Catalog& cat = space.benchmark == "H" ? tpch : tpcds;
  ASSERT_TRUE(space.query.Validate(cat).ok());
  QueryOptimizer opt(space.query, cat, CostParams::Postgres());

  const int dims = space.query.NumDims();
  // Walk each axis from the low corner and from the mid-point of others.
  for (int d = 0; d < dims; ++d) {
    DimVector base(dims);
    for (int e = 0; e < dims; ++e) {
      const auto& ed = space.query.error_dims[e];
      base[e] = std::sqrt(ed.lo * ed.hi);  // geometric midpoint
    }
    double prev = 0.0;
    const auto& ed = space.query.error_dims[d];
    for (int i = 0; i < 6; ++i) {
      base[d] = ed.lo * std::pow(ed.hi / ed.lo, i / 5.0);
      const double c = opt.OptimizeAt(base).cost;
      EXPECT_GE(c, prev * (1 - 1e-9))
          << space.name << " dim=" << d << " step=" << i;
      prev = c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, PcmSweepTest,
    ::testing::Values("3D_H_Q5", "3D_H_Q7", "4D_H_Q8", "5D_H_Q7",
                      "3D_DS_Q15", "3D_DS_Q96", "4D_DS_Q7", "4D_DS_Q26",
                      "4D_DS_Q91", "5D_DS_Q19"));

// Golden fingerprints of the DP's output. One long-lived optimizer walks
// every grid point in linear order (as a POSP shard does) and each point
// folds the plan's signature bytes, its cost and rows bits and every node's
// annotations in preorder. Any change to the enumerator's choices, its
// tie-breaking or its float derivations moves the pinned value.
uint64_t OptimizerFingerprint(const QuerySpec& query, const Catalog& catalog,
                              const EssGrid& grid) {
  QueryOptimizer opt(query, catalog, CostParams::Postgres());
  GoldenDigest g;
  DimVector sels;
  for (uint64_t i = 0; i < grid.num_points(); ++i) {
    grid.SelectivityAt(i, &sels);
    const Plan p = opt.OptimizeAt(sels);
    g.Add(static_cast<uint64_t>(p.signature.size()));
    for (const char c : p.signature) {
      g.Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    g.Add(p.cost);
    g.Add(p.rows);
    for (const PlanNode* n : CollectNodes(*p.root)) {
      g.Add(n->est_rows);
      g.Add(n->est_cost);
      g.Add(n->width);
    }
  }
  return g.value();
}

TEST(OptimizerGoldenTest, EqPinned) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const QuerySpec query = MakeEqQuery(catalog);
  EXPECT_EQ(OptimizerFingerprint(query, catalog,
                                 EssGrid::WithDefaultResolution(query)),
            0x5c8d70090b8f4ec2ULL);
}

// The real-execution templates at the resolution the service compiles them
// (64^2 and 20^3).
TEST(OptimizerGoldenTest, RealExecutionTemplatesPinned) {
  const Catalog catalog = MakeTpchCatalog(1.0);
  const QuerySpec q8a = Make2DHQ8a(catalog);
  EXPECT_EQ(OptimizerFingerprint(q8a, catalog,
                                 EssGrid::WithDefaultResolution(q8a)),
            0x442edc9c3441adc9ULL);
  const QuerySpec q5b = Make3DHQ5b(catalog);
  EXPECT_EQ(OptimizerFingerprint(q5b, catalog,
                                 EssGrid::WithDefaultResolution(q5b)),
            0xa0ab924878041f25ULL);
}

class OptimizerGoldenSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerGoldenSweep, TableTwoSpacePinned) {
  static const std::map<std::string, uint64_t> kPinned = {
      {"3D_H_Q5", 0xe7c105f620e702c2ULL},
      {"3D_H_Q7", 0xfcf69bed6e64bd2dULL},
      {"4D_H_Q8", 0x352232768f40a59eULL},
      {"5D_H_Q7", 0x0c05267c9767b1c0ULL},
      {"3D_DS_Q15", 0xbced039923161f60ULL},
      {"3D_DS_Q96", 0xc68e888f7e90b109ULL},
      {"4D_DS_Q7", 0xf4670cfe8d571dcfULL},
      {"4D_DS_Q26", 0x5d1faf574b4e3a7aULL},
      {"4D_DS_Q91", 0x788bfccb9837875dULL},
      {"5D_DS_Q19", 0x9755a3e2f8534fe3ULL}};
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace(GetParam(), tpch, tpcds);
  const Catalog& cat = space.benchmark == "H" ? tpch : tpcds;
  const int dims = space.query.NumDims();
  const int res = dims == 3 ? 6 : dims == 4 ? 4 : 3;
  EXPECT_EQ(OptimizerFingerprint(space.query, cat,
                                 EssGrid(space.query,
                                         std::vector<int>(dims, res))),
            kPinned.at(space.name))
      << space.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableTwoSpaces, OptimizerGoldenSweep,
    ::testing::Values("3D_H_Q5", "3D_H_Q7", "4D_H_Q8", "5D_H_Q7",
                      "3D_DS_Q15", "3D_DS_Q96", "4D_DS_Q7", "4D_DS_Q26",
                      "4D_DS_Q91", "5D_DS_Q19"));

}  // namespace
}  // namespace bouquet
