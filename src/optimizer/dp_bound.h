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
// fire when all three coincide bit-for-bit, and when each of the
// candidate's subsets is tight too (TightAt), since equal totals alone can
// hide a costlier subtree that rounds away.
//
// Incrementality. Everything that does not depend on selectivities is built
// once per instance: the shared split list (optimizer/split_list: the
// connected composite subsets in ascending order, each one's splits into two
// connected sides that share a crossing join, each crossing join's keys and
// index-NL eligibility), each crossing join's presort grants, and each
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
// candidate. The composite subsets' rows live in a SubsetRowTable that the
// POSP fast path's recosters read at the same point (subset_rows()).

#ifndef BOUQUET_OPTIMIZER_DP_BOUND_H_
#define BOUQUET_OPTIMIZER_DP_BOUND_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/selectivity.h"
#include "optimizer/split_list.h"
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
  // subset_rows_ points into card_.
  DpLowerBound(const DpLowerBound&) = delete;
  DpLowerBound& operator=(const DpLowerBound&) = delete;

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
  /// bit-equal cost anywhere along the winning chain. Callers must fall back
  /// to the full DP on ambiguity: the DP breaks exact ties by enumeration
  /// order, which recosting cannot reproduce. An unambiguous bound matched
  /// by a recost is not yet proof that the recosted plan is the DP's: two
  /// plans whose subtrees differ in cost can round to the same total. A plan
  /// every subset of which is TightAt the bound is the DP's plan.
  double BoundAt(const DimVector& dims, bool* ambiguous = nullptr);

  /// Subset bounds computed so far, singletons included, summed over all
  /// calls (PospStats::bound_subsets). Exact and deterministic: the first
  /// call computes every connected subset, later calls the ones whose
  /// SubsetDimMask meets the moved dimensions.
  long long subsets_computed() const { return subsets_computed_; }

  /// True when `cost` equals, bit for bit, the bound of `subset` at the
  /// point of the last BoundAt and no other candidate attained it (the
  /// subset's tie flag is clear). The POSP fast path certifies a plan only
  /// when this holds at every subset it keeps an entry for: the root alone
  /// is not enough, since a costlier subtree can round to the same total.
  bool TightAt(uint64_t subset, double cost) const {
    return cost == lb_[subset] && tie_[subset] == 0;
  }

  /// SubsetRows of every connected composite subset at the point of the last
  /// BoundAt (empty when the query is not supported). Recosters reading it
  /// (PlanRecoster's row table) must run at that same point.
  const SubsetRowTable& subset_rows() const { return subset_rows_; }

 private:
  // What the bound grants a crossing join's merge: its key order is
  // achievable inside that side.
  struct Presort {
    bool left = false;
    bool right = false;
  };

  void ComputeSingleton(int table);
  // `slot`: the composite's index in splits_.composites and its slot in
  // subset_rows_.
  void ComputeComposite(int slot);

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
  SplitList splits_;
  std::vector<Presort> presort_;  // per splits_.crossings entry
  std::vector<double> width_;     // per subset

  // Per subset, kept across calls and recomputed when a dimension in the
  // subset's SubsetDimMask moves. rows_ holds singletons' ScanRows and a
  // copy of subset_rows_ for composites. tie_[s] marks subsets whose bound
  // minimum is not uniquely attained (see BoundAt).
  SubsetRowTable subset_rows_;  // composites, one slot per composite
  std::vector<double> rows_;
  std::vector<double> lb_;
  std::vector<double> sort_;  // SortCost(rows_, width_)
  std::vector<char> tie_;
  double bound_ = 0.0;  // lb_ of the full set, aggregate included
  bool primed_ = false;

  long long subsets_computed_ = 0;
};

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_DP_BOUND_H_
