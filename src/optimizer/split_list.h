// The selectivity-independent skeleton of the DPsub join recurrence, shared
// by the DP enumerator and its scalar lower bound.
//
// For every connected composite subset of the query's tables, in ascending
// order (so a split's sides precede the subset), the list holds the subset's
// splits into two connected sides s1 and s2 that share at least one crossing
// join, in the enumerator's submask order (s1 descending from s - 1), and
// each split's crossing joins in ascending join order with their merge keys
// and index-NL eligibility. PlanEnumerator and DpLowerBound both iterate
// exactly this list, built by one function, so their enumeration orders
// cannot drift apart; the POSP fast path relies on the two computing the
// same floats in the same order.

#ifndef BOUQUET_OPTIMIZER_SPLIT_LIST_H_
#define BOUQUET_OPTIMIZER_SPLIT_LIST_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "optimizer/cardinality.h"

namespace bouquet {

/// Sort orders are encoded as table_idx * 65536 + column_idx. 64K columns
/// per table keeps the encoding collision-free for any schema
/// QuerySpec::Validate accepts (<= 20 tables fits comfortably in an int).
inline int EncodeOrder(int table_idx, int col_idx) {
  assert(col_idx >= 0 && col_idx < (1 << 16));
  return table_idx * (1 << 16) + col_idx;
}

/// Column index of an encoded order.
inline int OrderColumn(int order) { return order % (1 << 16); }

struct SplitList {
  /// A join predicate crossing a split.
  struct Crossing {
    int join = 0;
    int left_key = 0;   ///< the join's key order on s1's side
    int right_key = 0;  ///< the join's key order on s2's side
    bool index_nl = false;  ///< s2 is one table indexed on right_key
  };
  /// One way to split a composite subset into connected sides s1, s2.
  struct Split {
    uint64_t s1 = 0;
    uint64_t s2 = 0;
    int cross_begin = 0;  ///< [cross_begin, cross_end) into crossings
    int cross_end = 0;
    int inner_table = -1;  ///< s2's table when s2 is a single table
    int inner_quals = 0;   ///< index-NL inner quals: filters + crossings - 1
  };
  /// A connected subset of two or more tables.
  struct Composite {
    uint64_t subset = 0;
    uint32_t dims = 0;    ///< SubsetDimMask
    int split_begin = 0;  ///< [split_begin, split_end) into splits
    int split_end = 0;
  };

  std::vector<Composite> composites;  ///< ascending
  std::vector<Split> splits;
  std::vector<Crossing> crossings;
  std::vector<int> join_left_key;   ///< per join: its left column's order
  std::vector<int> join_right_key;  ///< per join: its right column's order
};

/// Builds the list for the context's query.
SplitList BuildSplitList(const CardinalityContext& card);

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_SPLIT_LIST_H_
