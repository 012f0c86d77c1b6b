// Shared cardinality derivations for the optimizer stack.
//
// The enumerator, the recoster, and the DP lower bound must price the same
// logical quantities through the *same floating-point derivation*: the
// incremental POSP fast path (ess/posp_generator) proves a recosted plan
// optimal by comparing its recost against a DP lower bound, and only emits
// it when the two agree bit-for-bit with what a full DP run would store.
// Any re-association of the underlying products/sums would break that
// equality silently. CardinalityContext therefore centralizes:
//   * SubsetRows  — output cardinality of a joined relation subset, in the
//                   exact multiplication order the DP enumerator uses
//                   (tables ascending, per-table filters ascending, then
//                   internal joins ascending);
//   * SubsetWidth — output row width, summed in ascending table order;
//   * ScanRows    — base-table scan output, in BuildScanEntries' order
//                   (selectivity product first, then one multiply);
//   * per-subset error-dimension dependency masks (SubsetDimMask): the
//     enumerator's invariant-subplan memo caches the subsets no dimension
//     touches, and the incremental costers (dp_bound, recost's
//     PlanRecoster) recompute a subset or plan node only when a dimension
//     in its mask moved since their previous call (MovedDims).
//
// SubsetRowTable keeps SubsetRows for a fixed set of join subsets at the
// current point, so every coster at that point reads one shared value per
// subset instead of each recomputing it (the DP bound owns one over its
// connected composite subsets; the simulator's cost sweep one over its
// plans' join subsets).

#ifndef BOUQUET_OPTIMIZER_CARDINALITY_H_
#define BOUQUET_OPTIMIZER_CARDINALITY_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/plan.h"
#include "optimizer/selectivity.h"
#include "query/query_spec.h"

namespace bouquet {

/// Appends the table mask (bits index into QuerySpec::tables) of every join
/// node of the plan to `out`: the subsets a SubsetRowTable must hold for a
/// PlanRecoster of that plan.
void AppendJoinSubsets(const PlanNode& root, std::vector<uint64_t>* out);

/// Bitmask (bit d = error dimension d) of the dimensions whose selectivity
/// in `sel` differs, bit for bit, from `*seen`; `*seen` is then set to the
/// current values (it may start empty). The incremental costers (dp_bound,
/// recost) compute everything on their first call and afterwards exactly
/// the subsets and nodes whose SubsetDimMask meets this mask.
uint32_t MovedDims(const SelectivityResolver& sel, DimVector* seen);

/// Precomputed per-(query, catalog) cardinality machinery. Read-only after
/// construction; safe to share across threads.
class CardinalityContext {
 public:
  CardinalityContext(const QuerySpec& query, const Catalog& catalog);

  const QuerySpec& query() const { return *query_; }
  int num_tables() const { return num_tables_; }
  const TableInfo& table(int t) const { return *tables_[t]; }
  const std::vector<int>& table_filters(int t) const {
    return table_filters_[t];
  }
  const std::vector<uint64_t>& join_lmasks() const { return join_lmask_; }
  const std::vector<uint64_t>& join_rmasks() const { return join_rmask_; }

  /// Output cardinality of a relation subset under the classical
  /// independence model, multiplied in the DP enumerator's exact order.
  double SubsetRows(uint64_t subset, const SelectivityResolver& sel) const;

  /// Output row width of a subset, summed in ascending table order (the DP
  /// enumerator's order).
  double SubsetWidth(uint64_t subset) const;

  /// Scan output cardinality in BuildScanEntries' derivation order:
  /// raw_rows * (product of the table's filter selectivities).
  double ScanRows(int table, const SelectivityResolver& sel) const;

  /// Bitmask (bit d = error dimension d) of the ESS dimensions the subset's
  /// cardinalities and costs depend on: selection dims whose table is in the
  /// subset, join dims with both endpoint tables in the subset. A zero mask
  /// means every DP quantity for this subset is invariant across the ESS.
  uint32_t SubsetDimMask(uint64_t subset) const;

 private:
  const QuerySpec* query_;
  int num_tables_ = 0;
  std::vector<const TableInfo*> tables_;         // by query table index
  std::vector<std::vector<int>> table_filters_;  // filter idxs per table
  std::vector<uint64_t> join_lmask_;             // bit of left table
  std::vector<uint64_t> join_rmask_;             // bit of right table
  // Per error dimension: the table mask that must be fully contained in a
  // subset for the dimension to affect it (one bit for selection dims, two
  // for join dims).
  std::vector<uint64_t> dim_masks_;
};

/// SubsetRows of a fixed set of relation subsets at the current ESS point.
/// Refresh brings it to a new point incrementally: a subset's rows change
/// only when a dimension in its SubsetDimMask moves. Not thread-safe.
class SubsetRowTable {
 public:
  /// Table over `subsets` (any order; duplicates are dropped). Slots follow
  /// ascending subset order. The context must outlive the table.
  SubsetRowTable(const CardinalityContext& ctx, std::vector<uint64_t> subsets);

  /// Slot of `subset`, or -1 when the table does not hold it.
  int Slot(uint64_t subset) const;
  int size() const { return static_cast<int>(subsets_.size()); }

  /// Recomputes the rows of every subset whose SubsetDimMask meets the
  /// dimensions that moved since the previous call (every subset on the
  /// first call) and returns the moved mask, as MovedDims does.
  uint32_t Refresh(const SelectivityResolver& sel);

  /// The slot's rows at the point of the last Refresh.
  double rows(int slot) const { return rows_[slot]; }

 private:
  const CardinalityContext* ctx_;
  std::vector<uint64_t> subsets_;  // ascending
  std::vector<uint32_t> dims_;     // per slot: SubsetDimMask
  std::vector<double> rows_;       // per slot
  bool primed_ = false;
  DimVector seen_;  // dimension values of the previous call
};

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_CARDINALITY_H_
