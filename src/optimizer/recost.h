// Abstract plan recosting ("Foreign Plan Costing").
//
// Given a fixed physical plan tree and an arbitrary selectivity assignment,
// recomputes cardinalities and operator costs bottom-up using the same cost
// model the enumerator used. This is the paper's "abstract plan costing"
// engine hook (Section 5.4) and is the workhorse for the POSP infimum curve,
// contour plan coverage, native-optimizer supremum, and bouquet simulation.
//
// Derivation identity: recosting follows the *exact floating-point
// derivation* of the DP enumerator — join cardinalities and widths come from
// CardinalityContext::SubsetRows/SubsetWidth over the subtree's table mask
// (not from re-associated child products), scan cardinalities from the
// BuildScanEntries order. Consequently, recosting a plan tree the enumerator
// materialized yields bit-for-bit the cost the enumerator assigned it; the
// incremental POSP fast path (ess/posp_generator) depends on this equality
// and tests/test_recost_differential.cc enforces it.
//
// Two ways to recost, one per-node arithmetic (EstimateNode in recost.cc):
//   * RecostPlan / RecostPlanTotal walk the tree once per call. Nothing is
//     kept between calls; the driver and the baselines use them.
//   * PlanRecoster flattens one plan once, fixing each node's table mask,
//     width, error-dimension mask and index descent, and keeps each node's
//     estimate across calls. A node depends on the ESS location only through
//     the dimensions in its subtree's SubsetDimMask (a parent's mask contains
//     its children's), so a call recomputes exactly the nodes whose mask
//     meets the dimensions that moved since that recoster's previous call.
//     The POSP fast path and the simulator's cost surfaces sweep many points
//     per plan and use it; its costs equal RecostPlanTotal's bit for bit,
//     whatever points it saw before. Its join nodes read their rows from a
//     SubsetRowTable, which the caller refreshes once per point for all of
//     that point's recosters (the fast path reads its DP bound's table; the
//     simulator keeps one over its plans' join subsets).

#ifndef BOUQUET_OPTIMIZER_RECOST_H_
#define BOUQUET_OPTIMIZER_RECOST_H_

#include <cstdint>
#include <vector>

#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "optimizer/selectivity.h"

namespace bouquet {

/// Per-node recosting outcome, aligned with CollectNodes() preorder.
struct NodeEstimate {
  double rows = 0.0;   ///< output cardinality at the recost point
  double cost = 0.0;   ///< cumulative cost of the subtree
  double width = 0.0;  ///< bytes per output row
};

/// The selectivity-independent part of one node's estimate.
struct NodeShape {
  uint64_t mask = 0;        ///< base tables in the subtree
  double width = 0.0;       ///< bytes per output row
  double inner_rows = 0.0;  ///< index NL join: the inner table's rows
  double descent = 0.0;     ///< index NL join: IndexDescentCost(inner_rows)
};

/// Full recosting detail.
struct PlanCostDetail {
  double total_cost = 0.0;
  std::vector<NodeEstimate> nodes;  ///< preorder, root first
};

/// Recosts the tree under the resolver's current selectivities. The context
/// must be built over the same (query, catalog) as the resolver.
PlanCostDetail RecostPlan(const PlanNode& root, const CostModel& cm,
                          const SelectivityResolver& sel,
                          const CardinalityContext& ctx);

/// Cost-only variant (no per-node vector), cheaper for bulk sweeps.
double RecostPlanTotal(const PlanNode& root, const CostModel& cm,
                       const SelectivityResolver& sel,
                       const CardinalityContext& ctx);

/// Convenience overloads that build a CardinalityContext per call. Fine for
/// cold paths; hot loops should hold a context (QueryOptimizer does).
PlanCostDetail RecostPlan(const PlanNode& root, const CostModel& cm,
                          const SelectivityResolver& sel);
double RecostPlanTotal(const PlanNode& root, const CostModel& cm,
                       const SelectivityResolver& sel);

/// Incremental recoster of one plan tree (see the file comment). Not
/// thread-safe; the context must outlive the recoster and be built over the
/// same (query, catalog) as every resolver passed to CostAt.
class PlanRecoster {
 public:
  /// `rows` must hold every join subset of the plan (AppendJoinSubsets),
  /// outlive the recoster, and be current (Refresh) at the point of every
  /// CostAt call; a table missing a subset aborts construction.
  PlanRecoster(PlanNodeRef root, const CostModel& cm,
               const CardinalityContext& ctx, const SubsetRowTable& rows);

  /// The plan's total cost under the resolver's current selectivities;
  /// bit-identical to RecostPlanTotal(root, cm, sel, ctx).
  double CostAt(const SelectivityResolver& sel);

  /// True when pred(mask, cost) holds for every node the DP keeps as a
  /// subset entry (scans and joins, not an index-lookup inner or the
  /// aggregate), with the node's table mask and cost at the last CostAt.
  template <typename Pred>
  bool AllEntries(Pred pred) const {
    for (const Node& n : nodes_) {
      if (n.entry && !pred(n.shape.mask, n.est.cost)) return false;
    }
    return true;
  }

  /// Plan nodes computed so far, summed over calls (PospStats::recost_nodes).
  long long nodes_computed() const { return nodes_computed_; }

 private:
  struct Node {
    const PlanNode* plan = nullptr;
    int left = -1;   // index into nodes_, or -1
    int right = -1;  // index into nodes_, or -1
    uint32_t dims = 0;  // SubsetDimMask(shape.mask)
    int row_slot = -1;  // join nodes: the mask's slot in rows_
    bool entry = false;  // a DP subset entry (see AllEntries)
    NodeShape shape;
    NodeEstimate est;
  };

  int Flatten(const PlanNode& node);

  PlanNodeRef root_;
  CostModel cm_;
  const CardinalityContext* ctx_;
  const SubsetRowTable* rows_;
  std::vector<Node> nodes_;  // postorder: children before parents
  bool primed_ = false;
  DimVector seen_;  // dimension values of the previous call
  long long nodes_computed_ = 0;
};

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_RECOST_H_
