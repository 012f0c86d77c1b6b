#include "optimizer/enumerator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>

#include "optimizer/plan_signature.h"

namespace bouquet {

PlanEnumerator::PlanEnumerator(const QuerySpec& query, const Catalog& catalog,
                               CostModel cost_model)
    : query_(&query),
      catalog_(&catalog),
      cm_(cost_model),
      num_tables_(static_cast<int>(query.tables.size())),
      card_(query, catalog) {}

void PlanEnumerator::Build() const {
  splits_ = BuildSplitList(card_);
  descent_.resize(num_tables_);
  cells_.resize(uint64_t{1} << num_tables_);
  for (int t = 0; t < num_tables_; ++t) {
    const uint64_t s = uint64_t{1} << t;
    descent_[t] = cm_.IndexDescentCost(card_.table(t).stats.row_count);
    cells_[s].width = card_.table(t).stats.row_width_bytes;
    cells_[s].invariant = card_.SubsetDimMask(s) == 0;
  }
  for (const SplitList::Composite& c : splits_.composites) {
    cells_[c.subset].width = card_.SubsetWidth(c.subset);
    cells_[c.subset].invariant = c.dims == 0;
  }
  built_ = true;
}

bool PlanEnumerator::OrderInteresting(int order, uint64_t subset) const {
  if (order == kNoOrder) return false;
  const auto& lmask = card_.join_lmasks();
  const auto& rmask = card_.join_rmasks();
  for (size_t j = 0; j < lmask.size(); ++j) {
    const bool l_in = (lmask[j] & subset) != 0;
    const bool r_in = (rmask[j] & subset) != 0;
    if (l_in == r_in) continue;  // internal or fully external join
    if (l_in && splits_.join_left_key[j] == order) return true;
    if (r_in && splits_.join_right_key[j] == order) return true;
  }
  return false;
}

void PlanEnumerator::BuildScanEntries(int table,
                                      const SelectivityResolver& sel) const {
  const TableInfo& t = card_.table(table);
  const double raw_rows = t.stats.row_count;
  const double width = t.stats.row_width_bytes;
  const std::vector<int>& filters = card_.table_filters(table);
  const uint64_t self = uint64_t{1} << table;
  Cell& cell = cells_[self];

  double out_sel = 1.0;
  for (int f : filters) out_sel *= sel.FilterSelectivity(f);
  const double out_rows = raw_rows * out_sel;

  auto make_scan = [&](OpType op, int index_filter, double cost, int order) {
    Entry e;
    e.cost = cost;
    e.rows = out_rows;
    e.width = width;
    e.order = order;
    e.op = op;
    e.key = index_filter;
    return e;
  };

  // Sequential scan: the unordered baseline.
  Entry best = make_scan(
      OpType::kSeqScan, -1,
      cm_.SeqScanCost(raw_rows, width, static_cast<int>(filters.size()),
                      out_rows),
      kNoOrder);

  // Index scans: one per indexed filtered column; the chosen filter becomes
  // the index qual and the output arrives sorted on that column. Entries
  // beyond the best wait in by_order_ (a reused buffer) in discovery order.
  std::vector<Entry>& order_entries = by_order_;
  order_entries.clear();
  for (int f : filters) {
    const auto& pred = query_->filters[f];
    const int col = t.ColumnIndex(pred.column);
    const ColumnInfo& ci = t.columns[col];
    if (!ci.has_index) continue;
    const double matched = raw_rows * sel.FilterSelectivity(f);
    const double cost = cm_.IndexScanCost(
        raw_rows, width, matched, static_cast<int>(filters.size()) - 1,
        out_rows);
    const int order = EncodeOrder(table, col);
    if (cost < best.cost) {
      // Demote the displaced winner rather than dropping it: it may itself
      // carry an interesting order the new best does not.
      if (best.order != kNoOrder && best.order != order &&
          OrderInteresting(best.order, self)) {
        order_entries.push_back(best);
      }
      best = make_scan(OpType::kIndexScan, f, cost, order);
    } else if (OrderInteresting(order, self)) {
      // Costlier than the best scan, but its order can pay for a skipped
      // sort later.
      order_entries.push_back(make_scan(OpType::kIndexScan, f, cost, order));
    }
  }

  std::vector<Entry>& entries = cell.entries;
  entries.clear();
  entries.push_back(best);
  for (const Entry& e : order_entries) {
    // Keep one (the cheapest) entry per distinct order.
    bool superseded = false;
    for (Entry& kept : entries) {
      if (kept.order == e.order) {
        if (e.cost < kept.cost) kept = e;
        superseded = true;
        break;
      }
    }
    if (!superseded) entries.push_back(e);
  }
  cell.sort = cm_.SortCost(out_rows, width);
}

void PlanEnumerator::ComputeSubset(int k,
                                   const SelectivityResolver& sel) const {
  const SplitList::Composite& c = splits_.composites[k];
  const uint64_t s = c.subset;
  Cell& cell = cells_[s];
  cell.entries.clear();

  const double out_rows = card_.SubsetRows(s, sel);
  const double out_width = cell.width;

  // Candidates are entries without rows and width (the subset's, filled in
  // for the survivors). Per-order winners stay sorted by order.
  Entry best_overall;
  best_overall.cost = std::numeric_limits<double>::infinity();
  by_order_.clear();
  auto consider = [&](const Entry& cand) {
    if (cand.cost < best_overall.cost) best_overall = cand;
    if (cand.order != kNoOrder && OrderInteresting(cand.order, s)) {
      const auto it = std::lower_bound(
          by_order_.begin(), by_order_.end(), cand.order,
          [](const Entry& e, int order) { return e.order < order; });
      if (it == by_order_.end() || it->order != cand.order) {
        by_order_.insert(it, cand);
      } else if (cand.cost < it->cost) {
        *it = cand;
      }
    }
  };
  auto join = [](double cost, OpType op, int split, int e1, int e2, int key,
                 bool lp, bool rp, int order) {
    Entry e;
    e.cost = cost;
    e.order = order;
    e.op = op;
    e.split = split;
    e.left = e1;
    e.right = e2;
    e.key = key;
    e.left_presorted = lp;
    e.right_presorted = rp;
    return e;
  };

  for (int sp = c.split_begin; sp < c.split_end; ++sp) {
    const SplitList::Split& split = splits_.splits[sp];
    const Cell& lcell = cells_[split.s1];
    const Cell& rcell = cells_[split.s2];
    if (lcell.entries.empty() || rcell.entries.empty()) continue;

    for (int i1 = 0; i1 < static_cast<int>(lcell.entries.size()); ++i1) {
      const Entry& l = lcell.entries[i1];
      const InputEst le{l.rows, l.cost, l.width};
      for (int i2 = 0; i2 < static_cast<int>(rcell.entries.size()); ++i2) {
        const Entry& r = rcell.entries[i2];
        const InputEst re{r.rows, r.cost, r.width};

        // Hash join: right side builds; probe (left) order survives.
        consider(join(cm_.HashJoinCost(le, re, out_rows), OpType::kHashJoin,
                      sp, i1, i2, -1, false, false, l.order));
        // Materialized nested loops: outer order survives.
        consider(join(cm_.MaterialNLJoinCost(le, re, out_rows),
                      OpType::kMaterialNLJoin, sp, i1, i2, -1, false, false,
                      l.order));
        // Sort-merge join: any crossing predicate can be the key; inputs
        // already sorted on their key side skip the sort. Every entry of a
        // subset has the subset's rows and width, so the cell's SortCost is
        // each side's sort.
        for (int x = split.cross_begin; x < split.cross_end; ++x) {
          const SplitList::Crossing& cross = splits_.crossings[x];
          const bool lp = l.order == cross.left_key;
          const bool rp = r.order == cross.right_key;
          consider(join(cm_.MergeJoinCostWithSorts(le, re, out_rows,
                                                   lp ? 0.0 : lcell.sort,
                                                   rp ? 0.0 : rcell.sort),
                        OpType::kMergeJoin, sp, i1, i2, cross.join, lp, rp,
                        cross.left_key));
        }
        // Index nested loops: inner must be a single base table with an
        // index on a crossing join column; outer order survives. The inner
        // is rebuilt as an index lookup, so one inner entry suffices.
        if (split.inner_table >= 0 && i2 == 0) {
          const int t2 = split.inner_table;
          const double raw = card_.table(t2).stats.row_count;
          for (int x = split.cross_begin; x < split.cross_end; ++x) {
            const SplitList::Crossing& cross = splits_.crossings[x];
            if (!cross.index_nl) continue;
            const double prefilter =
                l.rows * raw * sel.JoinSelectivity(cross.join);
            consider(join(cm_.IndexNLJoinCostWithDescent(
                              le, descent_[t2], prefilter, split.inner_quals,
                              out_rows),
                          OpType::kIndexNLJoin, sp, i1, i2, cross.join, false,
                          false, l.order));
          }
        }
      }
    }
  }

  cell.sort = cm_.SortCost(out_rows, out_width);
  if (!std::isfinite(best_overall.cost)) return;

  // The survivors: the cheapest overall plus each strictly order-distinct
  // winner.
  auto keep = [&](Entry e) {
    e.rows = out_rows;
    e.width = out_width;
    cell.entries.push_back(e);
  };
  keep(best_overall);
  for (const Entry& cand : by_order_) {
    if (cand.order == best_overall.order &&
        cand.cost >= best_overall.cost * (1 - 1e-12)) {
      continue;  // the overall winner already carries this order
    }
    keep(cand);
  }
}

PlanNodeRef PlanEnumerator::Materialize(uint64_t subset, int e) const {
  Cell& cell = cells_[subset];
  if (cell.invariant) {
    cell.trees.resize(cell.entries.size());
    if (cell.trees[e] == nullptr) cell.trees[e] = NewTree(subset, e);
    return cell.trees[e];
  }
  return NewTree(subset, e);
}

PlanNodeRef PlanEnumerator::NewTree(uint64_t subset, int e) const {
  const Entry& entry = cells_[subset].entries[e];
  auto node = std::make_shared<PlanNode>();
  node->op = entry.op;
  node->est_rows = entry.rows;
  node->est_cost = entry.cost;
  node->width = entry.width;
  if (entry.split < 0) {
    const int t = __builtin_ctzll(subset);
    node->table_idx = t;
    node->filter_idxs = card_.table_filters(t);
    node->index_filter = entry.key;
    return node;
  }

  const SplitList::Split& split = splits_.splits[entry.split];
  node->left = Materialize(split.s1, entry.left);
  for (int x = split.cross_begin; x < split.cross_end; ++x) {
    node->join_idxs.push_back(splits_.crossings[x].join);
  }
  if (entry.op == OpType::kMergeJoin) {
    // The merge key must be join_idxs[0] (executor contract).
    auto it = std::find(node->join_idxs.begin(), node->join_idxs.end(),
                        entry.key);
    assert(it != node->join_idxs.end());
    std::iter_swap(node->join_idxs.begin(), it);
    node->left_presorted = entry.left_presorted;
    node->right_presorted = entry.right_presorted;
  }
  if (entry.op == OpType::kIndexNLJoin) {
    node->index_join = entry.key;
    // Inner child is an index-lookup scan node on the base table.
    const int t2 = split.inner_table;
    const Entry& base = cells_[split.s2].entries[0];
    auto inner = std::make_shared<PlanNode>();
    inner->op = OpType::kIndexScan;
    inner->table_idx = t2;
    inner->filter_idxs = card_.table_filters(t2);
    inner->index_filter = -1;  // lookup key is the join, not a filter
    inner->est_rows = base.rows;
    inner->est_cost = 0.0;  // charged inside the join
    inner->width = base.width;
    node->right = std::move(inner);
  } else {
    node->right = Materialize(split.s2, entry.right);
  }
  return node;
}

Plan PlanEnumerator::Optimize(const SelectivityResolver& sel) const {
  ++invocations_;
  if (!built_) Build();

  for (int t = 0; t < num_tables_; ++t) {
    Cell& cell = cells_[uint64_t{1} << t];
    if (cell.ready) {
      ++memo_hits_;
      continue;
    }
    BuildScanEntries(t, sel);
    cell.ready = cell.invariant;
  }

  // Ascending subset order respects DP dependencies (submask < mask).
  const int num_composites = static_cast<int>(splits_.composites.size());
  for (int k = 0; k < num_composites; ++k) {
    Cell& cell = cells_[splits_.composites[k].subset];
    if (cell.ready) {
      ++memo_hits_;
      continue;
    }
    ComputeSubset(k, sel);
    // An invariant subset keeps even an empty outcome: it is equally
    // deterministic.
    cell.ready = cell.invariant;
  }

  const uint64_t full = (uint64_t{1} << num_tables_) - 1;
  assert(!cells_[full].entries.empty() &&
         "join graph disconnected or no plan found");
  const Entry& top = cells_[full].entries[0];
  Plan plan;
  plan.root = Materialize(full, 0);
  plan.cost = top.cost;
  plan.rows = top.rows;

  // Grouped aggregation sits above the join block (SPJA queries).
  if (query_->aggregate.enabled) {
    const double groups =
        query_->aggregate.EstimateGroups(*catalog_, top.rows);
    auto agg = std::make_shared<PlanNode>();
    agg->op = OpType::kHashAggregate;
    agg->left = plan.root;
    agg->est_rows = groups;
    agg->est_cost =
        cm_.AggregateCost({top.rows, top.cost, top.width}, groups);
    agg->width = 16.0 * (query_->aggregate.group_by.size() + 1);
    plan.root = std::move(agg);
    plan.cost = plan.root->est_cost;
    plan.rows = groups;
  }

  plan.signature = PlanSignature(*plan.root);
  return plan;
}

}  // namespace bouquet
