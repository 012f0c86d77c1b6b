// Optimistic scalar DP: a cheap per-point lower bound on the optimal plan
// cost.
//
// DpLowerBound runs the same DPsub recurrence as PlanEnumerator but keeps a
// single scalar per relation subset — the minimum over all operator
// alternatives of the cost obtained by feeding each side's scalar bound as
// its input cost. Because every cost formula in CostModel is additive in its
// inputs' costs (monotone non-decreasing), and subset cardinalities/widths
// are fixed per point, the scalar is a true lower bound on the cost of every
// DP entry the enumerator would keep for that subset.
//
// The one optimism knob is sort-merge presorting: a real DP entry may pay a
// sort the bound skips. The bound only skips a sort when the required key
// order is *achievable* for that side's subset (an index scan on the key
// column, or a merge join on that key somewhere inside the subset) — a
// static overapproximation of the orders the DP can actually carry. This
// keeps the bound sound while making it bit-exactly tight whenever the
// optimal plan takes no presorted-merge savings the bound also grants:
// in that case every float in the bound recurrence is the same operation on
// the same operands as in the enumerator, so bound == optimal cost exactly.
// The incremental POSP fast path (ess/posp_generator) exploits exactly that
// equality: it skips a full DP only when a recosted candidate's cost c*
// satisfies c* <= bound, which — since bound <= opt <= c* always — can only
// fire when all three coincide bit-for-bit.
//
// Incrementality. Everything that does not depend on selectivities is built
// once per instance: the connected composite subsets in ascending order,
// each one's splits into two connected sides that share a crossing join,
// each crossing join's presort grants and index-NL eligibility, and each
// table's index descent cost. Per subset the bound keeps its rows, bound,
// sort cost and tie flag across calls. These depend on the ESS location only
// through the error dimensions in the subset's SubsetDimMask (the selection
// dims on its tables and the join dims inside it; the children of a split
// are subsets, so their masks are contained in the parent's), so BoundAt
// recomputes exactly the subsets whose mask meets the dimensions that moved
// since the previous call, and reuses the rest bit for bit. A long-lived
// instance therefore returns the same bits as a fresh one whatever points it
// saw before; tests/test_recost_differential.cc checks this. Consecutive
// points of the POSP walk differ in one dimension, so most subsets are
// reused, and a recomputed subset prices its sort once, not once per merge
// candidate.

#ifndef BOUQUET_OPTIMIZER_DP_BOUND_H_
#define BOUQUET_OPTIMIZER_DP_BOUND_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/selectivity.h"
#include "query/query_spec.h"

namespace bouquet {

/// Scalar optimistic-DP bound, bound to one (query, catalog, cost-model)
/// triple. Not thread-safe: each POSP shard owns its own instance (the
/// per-subset state mutates on use).
class DpLowerBound {
 public:
  /// Requires Supports(query, catalog); otherwise BoundAt always returns
  /// +infinity ("never skip").
  DpLowerBound(const QuerySpec& query, const Catalog& catalog,
               CostModel cost_model);

  /// False when the query names more than 64 distinct key orders (indexed
  /// filter columns plus both sides of every join; up to 128 with the 64
  /// joins QuerySpec::Validate accepts): the achievable-order masks are 64
  /// bits. Callers then run one full DP per point.
  static bool Supports(const QuerySpec& query, const Catalog& catalog);

  /// Lower bound on the optimizer's final plan cost (aggregate included for
  /// SPJA queries) at the given ESS location. Returns +infinity when no
  /// finite-cost plan exists, which callers must treat as "never skip".
  ///
  /// `ambiguous`, when given, is set to true if the bound's minimum is
  /// attained by more than one (decomposition, operator) candidate with
  /// bit-equal cost anywhere along the winning chain. At a point where the
  /// bound is tight (bound == optimal cost), two structurally different
  /// optimal plans tie exactly iff their chains diverge at some subset with
  /// bit-equal bound candidates — so an unambiguous tight bound certifies
  /// the DP's argmin is unique, and a recost matching the bound identifies
  /// *the* plan the DP would emit (not merely *a* cost-equal plan). Callers
  /// must fall back to the full DP on ambiguity: the DP breaks exact ties
  /// by enumeration order, which recosting cannot reproduce.
  double BoundAt(const DimVector& dims, bool* ambiguous = nullptr);

  /// Subset bounds computed so far, singletons included, summed over all
  /// calls (PospStats::bound_subsets). Exact and deterministic: the first
  /// call computes every connected subset, later calls the ones whose
  /// SubsetDimMask meets the moved dimensions.
  long long subsets_computed() const { return subsets_computed_; }

 private:
  // One way to split a composite subset into connected sides s1 and s2
  // with at least one crossing join, in the enumerator's submask order.
  struct Split {
    uint64_t s1 = 0;
    uint64_t s2 = 0;
    int cross_begin = 0;  // [cross_begin, cross_end) into crossings_
    int cross_end = 0;
    int inner_table = -1;  // s2's table when s2 is a single table
    int inner_quals = 0;   // index-NL inner quals: filters + crossings - 1
  };
  // A crossing join of a split and what the bound grants it.
  struct Crossing {
    int join = 0;
    bool left_presorted = false;   // key order achievable inside s1
    bool right_presorted = false;  // key order achievable inside s2
    bool index_nl = false;  // s2 is one table indexed on this join's column
  };
  struct Composite {
    uint64_t subset = 0;
    uint32_t dims = 0;  // SubsetDimMask
    int split_begin = 0;  // [split_begin, split_end) into splits_
    int split_end = 0;
  };

  void ComputeSingleton(int table);
  void ComputeComposite(const Composite& c);

  const QuerySpec* query_;
  const Catalog* catalog_;
  CostModel cm_;
  int num_tables_;
  CardinalityContext card_;
  SelectivityResolver resolver_;
  bool supported_ = false;

  // Selectivity-independent structure, built once.
  std::vector<uint32_t> table_dims_;  // per table: SubsetDimMask
  std::vector<std::vector<int>> indexed_filters_;  // per table
  std::vector<double> descent_;       // per table: IndexDescentCost
  std::vector<Composite> composites_;  // connected, ascending
  std::vector<Split> splits_;
  std::vector<Crossing> crossings_;
  std::vector<double> width_;  // per subset

  // Per subset, kept across calls and recomputed when a dimension in the
  // subset's SubsetDimMask moves. tie_[s] marks subsets whose bound minimum
  // is not uniquely attained (see BoundAt).
  std::vector<double> rows_;
  std::vector<double> lb_;
  std::vector<double> sort_;  // SortCost(rows_, width_)
  std::vector<char> tie_;
  double bound_ = 0.0;  // lb_ of the full set, aggregate included
  bool primed_ = false;
  DimVector seen_;      // dimension values of the previous call

  long long subsets_computed_ = 0;
};

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_DP_BOUND_H_
