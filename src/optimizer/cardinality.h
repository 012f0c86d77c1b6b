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

#ifndef BOUQUET_OPTIMIZER_CARDINALITY_H_
#define BOUQUET_OPTIMIZER_CARDINALITY_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "optimizer/plan.h"
#include "optimizer/selectivity.h"
#include "query/query_spec.h"

namespace bouquet {

/// Bitmask of base tables referenced by a plan subtree (bits index into
/// QuerySpec::tables).
uint64_t PlanTableMask(const PlanNode& root);

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

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_CARDINALITY_H_
