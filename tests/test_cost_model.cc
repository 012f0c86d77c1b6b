// Tests for optimizer/cost_model: monotonicity (the foundation of PCM),
// parameterizations, and qualitative crossovers.

#include <gtest/gtest.h>

#include "optimizer/cost_model.h"

namespace bouquet {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  CostModel cm_{CostParams::Postgres()};
};

TEST_F(CostModelTest, PagesFloor) {
  EXPECT_DOUBLE_EQ(cm_.Pages(1, 8), 1.0);
  EXPECT_NEAR(cm_.Pages(8192, 100), 100.0, 1e-9);
}

TEST_F(CostModelTest, SeqScanGrowsWithRowsAndQuals) {
  const double c1 = cm_.SeqScanCost(1000, 100, 0, 1000);
  const double c2 = cm_.SeqScanCost(2000, 100, 0, 2000);
  const double c3 = cm_.SeqScanCost(1000, 100, 3, 1000);
  EXPECT_GT(c2, c1);
  EXPECT_GT(c3, c1);
}

TEST_F(CostModelTest, IndexScanMonotoneInMatches) {
  double prev = 0.0;
  for (double matched : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
    const double c = cm_.IndexScanCost(100000, 100, matched, 0, matched);
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST_F(CostModelTest, IndexBeatsSeqAtLowSelectivityOnly) {
  // 1M rows, 100B wide: index wins at 0.01% but loses at 50%.
  const double rows = 1e6;
  const double lo_sel = 1e-4, hi_sel = 0.5;
  const double seq_lo = cm_.SeqScanCost(rows, 100, 1, rows * lo_sel);
  const double idx_lo =
      cm_.IndexScanCost(rows, 100, rows * lo_sel, 0, rows * lo_sel);
  EXPECT_LT(idx_lo, seq_lo);
  const double seq_hi = cm_.SeqScanCost(rows, 100, 1, rows * hi_sel);
  const double idx_hi =
      cm_.IndexScanCost(rows, 100, rows * hi_sel, 0, rows * hi_sel);
  EXPECT_GT(idx_hi, seq_hi);
}

TEST_F(CostModelTest, HashJoinMonotoneInInputs) {
  const InputEst small{1000, 100, 64};
  const InputEst big{100000, 100, 64};
  EXPECT_GT(cm_.HashJoinCost(big, small, 1000),
            cm_.HashJoinCost(small, small, 1000));
  EXPECT_GT(cm_.HashJoinCost(small, big, 1000),
            cm_.HashJoinCost(small, small, 1000));
  EXPECT_GT(cm_.HashJoinCost(small, small, 100000),
            cm_.HashJoinCost(small, small, 1000));
}

TEST_F(CostModelTest, HashJoinSpillKicksIn) {
  // Build side above work_mem costs extra IO.
  const InputEst probe{1000, 0, 64};
  const double wm = CostParams::Postgres().work_mem_bytes;
  const InputEst fits{wm / 64 / 2, 0, 64};
  const InputEst spills{wm / 64 * 4, 0, 64};
  const double c_fit = cm_.HashJoinCost(probe, fits, 10);
  const double c_spill = cm_.HashJoinCost(probe, spills, 10);
  // More than 8x build rows (and spill IO) — clearly super-linear jump.
  EXPECT_GT(c_spill, c_fit * 4);
}

TEST_F(CostModelTest, MergeJoinIncludesSorts) {
  const InputEst l{10000, 0, 64};
  const InputEst r{10000, 0, 64};
  const double merge = cm_.MergeJoinCost(l, r, 1000);
  EXPECT_GT(merge, cm_.SortCost(10000, 64) * 2);
}

TEST_F(CostModelTest, SortCostExternalPenalty) {
  const double wm = CostParams::Postgres().work_mem_bytes;
  const double fits = cm_.SortCost(wm / 64 / 2, 64);
  const double spills = cm_.SortCost(wm / 64 * 4, 64);
  EXPECT_GT(spills, fits * 8);
}

TEST_F(CostModelTest, IndexNLJoinScalesWithOuter) {
  const InputEst outer_small{100, 0, 64};
  const InputEst outer_big{100000, 0, 64};
  const double c_small = cm_.IndexNLJoinCostWithDescent(
      outer_small, cm_.IndexDescentCost(1e6), 100, 0, 100);
  const double c_big = cm_.IndexNLJoinCostWithDescent(
      outer_big, cm_.IndexDescentCost(1e6), 100000, 0, 100000);
  EXPECT_GT(c_big, c_small * 500);
}

TEST_F(CostModelTest, IndexNLBeatsHashForTinyOuter) {
  // 10 outer rows probing a 1M-row inner: NL wins; 100k outer rows: hash
  // wins. This crossover is what makes the POSP non-trivial.
  const InputEst inner{1e6, cm_.SeqScanCost(1e6, 100, 0, 1e6), 100};
  {
    const InputEst outer{10, 0, 64};
    const double nl = cm_.IndexNLJoinCostWithDescent(
        outer, cm_.IndexDescentCost(1e6), 10, 0, 10);
    const double hj = cm_.HashJoinCost(outer, inner, 10);
    EXPECT_LT(nl, hj);
  }
  {
    const InputEst outer{100000, 0, 64};
    const double nl = cm_.IndexNLJoinCostWithDescent(
        outer, cm_.IndexDescentCost(1e6), 100000, 0, 100000);
    const double hj = cm_.HashJoinCost(outer, inner, 100000);
    EXPECT_GT(nl, hj);
  }
}

TEST_F(CostModelTest, MaterialNLJoinQuadratic) {
  const InputEst a{1000, 0, 64};
  const InputEst b{1000, 0, 64};
  const InputEst b10{10000, 0, 64};
  const double c1 = cm_.MaterialNLJoinCost(a, b, 10);
  const double c10 = cm_.MaterialNLJoinCost(a, b10, 10);
  EXPECT_GT(c10, c1 * 5);
}

TEST(CostParamsTest, FactoriesDiffer) {
  const CostParams pg = CostParams::Postgres();
  const CostParams com = CostParams::Commercial();
  EXPECT_NE(pg.random_page_cost, com.random_page_cost);
  EXPECT_NE(pg.cpu_tuple_cost, com.cpu_tuple_cost);
  EXPECT_NE(pg.work_mem_bytes, com.work_mem_bytes);
}

// Property sweep: every join cost function is monotone non-decreasing in the
// output cardinality (a PCM prerequisite).
class JoinCostMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinCostMonotoneTest, MonotoneInOutput) {
  const CostModel cm{GetParam() == 0 ? CostParams::Postgres()
                                     : CostParams::Commercial()};
  const InputEst l{5000, 100, 64};
  const InputEst r{20000, 400, 64};
  double prev_h = 0, prev_m = 0, prev_n = 0, prev_i = 0;
  for (double out : {0.0, 10.0, 1e3, 1e5, 1e7}) {
    const double h = cm.HashJoinCost(l, r, out);
    const double m = cm.MergeJoinCost(l, r, out);
    const double n = cm.MaterialNLJoinCost(l, r, out);
    const double i = cm.IndexNLJoinCostWithDescent(
        l, cm.IndexDescentCost(20000), out, 0, out);
    EXPECT_GE(h, prev_h);
    EXPECT_GE(m, prev_m);
    EXPECT_GE(n, prev_n);
    EXPECT_GE(i, prev_i);
    prev_h = h;
    prev_m = m;
    prev_n = n;
    prev_i = i;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, JoinCostMonotoneTest,
                         ::testing::Values(0, 1));

}  // namespace
}  // namespace bouquet
