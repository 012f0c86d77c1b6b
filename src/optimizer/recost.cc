#include "optimizer/recost.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "catalog/catalog.h"
#include "query/query_spec.h"

namespace bouquet {

namespace {

// The selectivity-independent part of a node's estimate; `child_mask` is the
// union of its children's table masks.
NodeShape ShapeOf(const PlanNode& node, uint64_t child_mask,
                  const CostModel& cm, const CardinalityContext& ctx) {
  NodeShape shape;
  if (node.is_scan()) {
    shape.mask = uint64_t{1} << node.table_idx;
    shape.width = ctx.table(node.table_idx).stats.row_width_bytes;
  } else if (node.is_aggregate()) {
    shape.mask = child_mask;
    shape.width = node.width;
  } else {
    shape.mask = child_mask;
    // Enumerator derivation: subset width from the table mask.
    shape.width = ctx.SubsetWidth(child_mask);
    if (node.op == OpType::kIndexNLJoin) {
      shape.inner_rows = ctx.table(node.right->table_idx).stats.row_count;
      shape.descent = cm.IndexDescentCost(shape.inner_rows);
    }
  }
  return shape;
}

// One node's estimate from its shape and its children's estimates (unused
// ones ignored): the per-node arithmetic every recost runs. `join_rows` is
// a join node's SubsetRows(shape.mask) at the point (ignored otherwise).
NodeEstimate EstimateNode(const PlanNode& node, const NodeShape& shape,
                          const NodeEstimate& l, const NodeEstimate& r,
                          double join_rows, const CostModel& cm,
                          const SelectivityResolver& sel,
                          const CardinalityContext& ctx) {
  NodeEstimate est;
  est.width = shape.width;
  if (node.is_scan()) {
    const TableInfo& t = ctx.table(node.table_idx);
    const double raw = t.stats.row_count;
    double out_sel = 1.0;
    for (int f : node.filter_idxs) out_sel *= sel.FilterSelectivity(f);
    est.rows = raw * out_sel;
    if (node.op == OpType::kIndexScan && node.index_filter >= 0) {
      const double matched = raw * sel.FilterSelectivity(node.index_filter);
      est.cost = cm.IndexScanCost(
          raw, shape.width, matched,
          static_cast<int>(node.filter_idxs.size()) - 1, est.rows);
    } else if (node.op == OpType::kIndexScan) {
      // Index-lookup inner of an index NL join: cost charged by the parent.
      est.cost = 0.0;
    } else {
      est.cost = cm.SeqScanCost(raw, shape.width,
                                static_cast<int>(node.filter_idxs.size()),
                                est.rows);
    }
  } else if (node.is_aggregate()) {
    const double groups =
        sel.query().aggregate.EstimateGroups(sel.catalog(), l.rows);
    est.rows = groups;
    est.cost = cm.AggregateCost({l.rows, l.cost, l.width}, groups);
  } else {
    // Enumerator derivation: subset cardinality from the table mask.
    est.rows = join_rows;
    const InputEst le{l.rows, l.cost, l.width};
    const InputEst re{r.rows, r.cost, r.width};
    switch (node.op) {
      case OpType::kHashJoin:
        est.cost = cm.HashJoinCost(le, re, est.rows);
        break;
      case OpType::kMergeJoin:
        est.cost = cm.MergeJoinCost(le, re, est.rows, node.left_presorted,
                                    node.right_presorted);
        break;
      case OpType::kMaterialNLJoin:
        est.cost = cm.MaterialNLJoinCost(le, re, est.rows);
        break;
      case OpType::kIndexNLJoin: {
        assert(node.index_join >= 0);
        const double prefilter =
            l.rows * shape.inner_rows * sel.JoinSelectivity(node.index_join);
        const int residual =
            static_cast<int>(node.right->filter_idxs.size()) +
            static_cast<int>(node.join_idxs.size()) - 1;
        est.cost = cm.IndexNLJoinCostWithDescent(le, shape.descent, prefilter,
                                                 residual, est.rows);
        break;
      }
      default:
        assert(false && "not a join op");
    }
  }
  return est;
}

struct RecostState {
  const CostModel* cm;
  const SelectivityResolver* sel;
  const CardinalityContext* ctx;
  std::vector<NodeEstimate>* out;  // may be null
};

// Returns the subtree's estimate and its base-table mask, so join nodes can
// derive rows/width exactly as the enumerator did (from the subset, not from
// re-associated child products).
NodeEstimate RecostRec(const PlanNode& node, RecostState* st,
                       uint64_t* mask_out) {
  // Reserve this node's preorder slot before descending.
  size_t slot = 0;
  if (st->out != nullptr) {
    slot = st->out->size();
    st->out->emplace_back();
  }
  assert(node.is_scan() || (node.left && (node.is_aggregate() || node.right)));
  NodeEstimate l, r;
  uint64_t lmask = 0, rmask = 0;
  if (node.left) l = RecostRec(*node.left, st, &lmask);
  if (node.right) r = RecostRec(*node.right, st, &rmask);
  const NodeShape shape = ShapeOf(node, lmask | rmask, *st->cm, *st->ctx);
  *mask_out = shape.mask;
  const double join_rows =
      node.is_join() ? st->ctx->SubsetRows(shape.mask, *st->sel) : 0.0;
  const NodeEstimate est = EstimateNode(node, shape, l, r, join_rows, *st->cm,
                                        *st->sel, *st->ctx);
  if (st->out != nullptr) (*st->out)[slot] = est;
  return est;
}

}  // namespace

PlanCostDetail RecostPlan(const PlanNode& root, const CostModel& cm,
                          const SelectivityResolver& sel,
                          const CardinalityContext& ctx) {
  PlanCostDetail detail;
  RecostState st{&cm, &sel, &ctx, &detail.nodes};
  uint64_t mask = 0;
  const NodeEstimate top = RecostRec(root, &st, &mask);
  detail.total_cost = top.cost;
  return detail;
}

double RecostPlanTotal(const PlanNode& root, const CostModel& cm,
                       const SelectivityResolver& sel,
                       const CardinalityContext& ctx) {
  RecostState st{&cm, &sel, &ctx, nullptr};
  uint64_t mask = 0;
  return RecostRec(root, &st, &mask).cost;
}

PlanCostDetail RecostPlan(const PlanNode& root, const CostModel& cm,
                          const SelectivityResolver& sel) {
  const CardinalityContext ctx(sel.query(), sel.catalog());
  return RecostPlan(root, cm, sel, ctx);
}

double RecostPlanTotal(const PlanNode& root, const CostModel& cm,
                       const SelectivityResolver& sel) {
  const CardinalityContext ctx(sel.query(), sel.catalog());
  return RecostPlanTotal(root, cm, sel, ctx);
}

PlanRecoster::PlanRecoster(PlanNodeRef root, const CostModel& cm,
                           const CardinalityContext& ctx,
                           const SubsetRowTable& rows)
    : root_(std::move(root)), cm_(cm), ctx_(&ctx), rows_(&rows) {
  Flatten(*root_);
}

int PlanRecoster::Flatten(const PlanNode& node) {
  Node n;
  n.plan = &node;
  if (node.left) n.left = Flatten(*node.left);
  if (node.right) n.right = Flatten(*node.right);
  const uint64_t child_mask =
      (n.left >= 0 ? nodes_[n.left].shape.mask : 0) |
      (n.right >= 0 ? nodes_[n.right].shape.mask : 0);
  n.shape = ShapeOf(node, child_mask, cm_, *ctx_);
  n.dims = ctx_->SubsetDimMask(n.shape.mask);
  n.entry = node.is_join() ||
            (node.is_scan() &&
             !(node.op == OpType::kIndexScan && node.index_filter < 0));
  if (node.is_join()) {
    n.row_slot = rows_->Slot(n.shape.mask);
    if (n.row_slot < 0) {
      std::fprintf(stderr, "PlanRecoster: row table lacks join subset %#llx\n",
                   static_cast<unsigned long long>(n.shape.mask));
      std::abort();
    }
  }
  nodes_.push_back(n);
  return static_cast<int>(nodes_.size()) - 1;
}

double PlanRecoster::CostAt(const SelectivityResolver& sel) {
  const uint32_t moved = MovedDims(sel, &seen_);
  // The first call computes every node, invariant ones included.
  if (!primed_ || moved != 0) {
    const NodeEstimate none;
    for (Node& n : nodes_) {
      if (primed_ && (n.dims & moved) == 0) continue;
      const double join_rows = n.row_slot >= 0 ? rows_->rows(n.row_slot) : 0.0;
      n.est = EstimateNode(*n.plan, n.shape,
                           n.left >= 0 ? nodes_[n.left].est : none,
                           n.right >= 0 ? nodes_[n.right].est : none,
                           join_rows, cm_, sel, *ctx_);
      ++nodes_computed_;
    }
    primed_ = true;
  }
  return nodes_.back().est.cost;
}

}  // namespace bouquet
