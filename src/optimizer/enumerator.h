// System-R style dynamic-programming plan enumerator with interesting
// orders.
//
// Enumerates bushy join trees over connected subgraphs of the join graph
// (DPsub), choosing among sequential/index scans and hash / sort-merge /
// index-nested-loop / materialized-nested-loop joins, priced by CostModel.
// Cardinalities follow the classical independence model: the cardinality of
// a relation subset is the product of base cardinalities, applicable filter
// selectivities, and internal join selectivities — which is exactly the model
// under which injected ESS selectivities are well-defined.
//
// Interesting orders: index scans emit rows sorted on their qual column and
// merge joins emit rows sorted on their key; hash/NL joins preserve the
// outer side's order. The DP therefore keeps, per relation subset, the
// cheapest plan overall plus the cheapest plan per sort order that can
// still benefit a pending join (so a future merge join can skip a sort).
//
// The DP table holds plain records, not plan trees. Each relation subset's
// entries (its cheapest plan first, then its cheapest plan per order that is
// still interesting) record cost, rows, width, order, operator, the split,
// the child entries, the key and the presort flags, in one table reused
// across calls; only the winner's PlanNode tree is materialized at the end,
// and an invariant subset's subtree only once, shared by every later plan.
// The splits come from the shared split list (optimizer/split_list), which
// DpLowerBound iterates too, built on the first Optimize call.
//
// Invariant-subplan memoization: a DP subproblem whose tables, filters, and
// internal joins touch no error-prone predicate (CardinalityContext::
// SubsetDimMask == 0) has entries that are independent of the injected ESS
// location. Those entries are computed once per enumerator and kept in the
// table by every later Optimize() call — bit-identical by construction,
// since they are exactly what a fresh run would recompute from the same
// inputs (their children are invariant too, so their child indexes stay
// valid).

#ifndef BOUQUET_OPTIMIZER_ENUMERATOR_H_
#define BOUQUET_OPTIMIZER_ENUMERATOR_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "optimizer/selectivity.h"
#include "optimizer/split_list.h"
#include "query/query_spec.h"

namespace bouquet {

/// Dynamic-programming enumerator bound to one (query, catalog, cost-model)
/// triple. Construction precomputes connectivity and predicate masks; each
/// Optimize() call then runs the DP for one selectivity assignment.
class PlanEnumerator {
 public:
  PlanEnumerator(const QuerySpec& query, const Catalog& catalog,
                 CostModel cost_model);

  /// Finds the cheapest plan under the resolver's current selectivities.
  Plan Optimize(const SelectivityResolver& sel) const;

  /// Number of optimizer invocations served so far (compile-time overhead
  /// accounting, Section 6.1).
  long long invocations() const { return invocations_; }

  /// Number of DP subproblems served from the invariant-subplan memo
  /// instead of being re-enumerated (summed over all Optimize() calls).
  long long memo_hits() const { return memo_hits_; }

 private:
  static constexpr int kNoOrder = -1;

  // One DP entry: a plan for a relation subset, as a plain record.
  struct Entry {
    double cost = 0.0;
    double rows = 0.0;
    double width = 0.0;
    int order = kNoOrder;  // EncodeOrder of its output's sort column
    OpType op = OpType::kSeqScan;
    int split = -1;  // joins: index into splits_.splits; -1 for scans
    int left = 0;    // joins: entry index into the s1 side's entries
    int right = 0;   // joins: entry index into the s2 side's entries
    int key = -1;    // merge key or index-lookup join; index scans: filter
    bool left_presorted = false;
    bool right_presorted = false;
  };

  // One subset's slot in the DP table.
  struct Cell {
    std::vector<Entry> entries;  // empty when no finite-cost plan exists
    double width = 0.0;          // SubsetWidth, fixed
    double sort = 0.0;           // SortCost(rows, width) at the point
    bool invariant = false;      // SubsetDimMask == 0
    bool ready = false;          // invariant and already computed
    // Invariant cells: each entry's tree once materialized, shared by every
    // plan built on it (the entries never change).
    std::vector<PlanNodeRef> trees;
  };

  // Builds the split list and the table (first Optimize call).
  void Build() const;
  void BuildScanEntries(int table, const SelectivityResolver& sel) const;
  // Enumerates every split of composite `k` into its cell (leaves it empty
  // when no finite-cost plan exists).
  void ComputeSubset(int k, const SelectivityResolver& sel) const;
  // True when a stream sorted on `order` could still feed a merge join with
  // a relation outside `subset`.
  bool OrderInteresting(int order, uint64_t subset) const;
  // The PlanNode tree of entry `e` of `subset` (an invariant cell's is
  // built once); NewTree builds it, materializing the children.
  PlanNodeRef Materialize(uint64_t subset, int e) const;
  PlanNodeRef NewTree(uint64_t subset, int e) const;

  const QuerySpec* query_;
  const Catalog* catalog_;
  CostModel cm_;
  int num_tables_;
  CardinalityContext card_;  // shared cardinality derivations

  // Built on the first Optimize call, so an optimizer that only recosts
  // never pays for them.
  mutable bool built_ = false;
  mutable SplitList splits_;
  mutable std::vector<double> descent_;  // per table: IndexDescentCost
  mutable std::vector<Cell> cells_;      // per subset
  mutable std::vector<Entry> by_order_;  // reused: per-order candidates
  mutable long long invocations_ = 0;
  mutable long long memo_hits_ = 0;
};

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_ENUMERATOR_H_
