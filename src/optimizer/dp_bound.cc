#include "optimizer/dp_bound.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

namespace bouquet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kMaxTrackedOrders = 64;  // achievable-order mask width

// Every order the DP can manufacture, each once, in first-seen order:
// index-scan orders on filtered indexed columns, then both key orders of
// every join (merge outputs).
std::vector<int> TrackedOrders(const QuerySpec& query,
                               const CardinalityContext& card) {
  std::vector<int> orders;
  auto track = [&orders](int order) {
    for (int o : orders) {
      if (o == order) return;
    }
    orders.push_back(order);
  };
  for (int t = 0; t < card.num_tables(); ++t) {
    const TableInfo& ti = card.table(t);
    for (int f : card.table_filters(t)) {
      const int col = ti.ColumnIndex(query.filters[f].column);
      if (ti.columns[col].has_index) track(EncodeOrder(t, col));
    }
  }
  for (const auto& j : query.joins) {
    const int lt = query.TableIndex(j.left_table);
    const int rt = query.TableIndex(j.right_table);
    track(EncodeOrder(lt, card.table(lt).ColumnIndex(j.left_column)));
    track(EncodeOrder(rt, card.table(rt).ColumnIndex(j.right_column)));
  }
  return orders;
}

int OrderBit(const std::vector<int>& orders, int order) {
  for (size_t i = 0; i < orders.size(); ++i) {
    if (orders[i] == order) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

bool DpLowerBound::Supports(const QuerySpec& query, const Catalog& catalog) {
  const CardinalityContext card(query, catalog);
  return TrackedOrders(query, card).size() <= kMaxTrackedOrders;
}

DpLowerBound::DpLowerBound(const QuerySpec& query, const Catalog& catalog,
                           CostModel cost_model)
    : query_(&query),
      catalog_(&catalog),
      cm_(cost_model),
      num_tables_(static_cast<int>(query.tables.size())),
      card_(query, catalog),
      resolver_(query, catalog),
      subset_rows_(card_, {}) {
  const std::vector<int> orders = TrackedOrders(query, card_);
  supported_ = orders.size() <= kMaxTrackedOrders;
  assert(supported_ && "achievable-order mask is 64 bits");
  if (!supported_) return;

  splits_ = BuildSplitList(card_);
  std::vector<uint64_t> scan_order_mask(num_tables_, 0);
  table_dims_.resize(num_tables_);
  indexed_filters_.resize(num_tables_);
  descent_.resize(num_tables_);
  for (int t = 0; t < num_tables_; ++t) {
    const TableInfo& ti = card_.table(t);
    for (int f : card_.table_filters(t)) {
      const int col = ti.ColumnIndex(query.filters[f].column);
      if (!ti.columns[col].has_index) continue;
      indexed_filters_[t].push_back(f);
      scan_order_mask[t] |= uint64_t{1}
                            << OrderBit(orders, EncodeOrder(t, col));
    }
    table_dims_[t] = card_.SubsetDimMask(uint64_t{1} << t);
    descent_[t] = cm_.IndexDescentCost(ti.stats.row_count);
  }

  const uint64_t full = uint64_t{1} << num_tables_;
  const auto& lmask = card_.join_lmasks();
  const auto& rmask = card_.join_rmasks();
  // Per subset: bitmask (over `orders`) of key orders some DP entry for the
  // subset *could* carry — overapproximated, see the header comment.
  std::vector<uint64_t> achievable(full, 0);
  width_.assign(full, 0.0);
  for (uint64_t s = 1; s < full; ++s) {
    width_[s] = card_.SubsetWidth(s);
    uint64_t ach = 0;
    for (uint64_t bits = s; bits != 0; bits &= bits - 1) {
      ach |= scan_order_mask[__builtin_ctzll(bits)];
    }
    for (size_t j = 0; j < lmask.size(); ++j) {
      if ((lmask[j] & s) && (rmask[j] & s)) {
        ach |= uint64_t{1} << OrderBit(orders, splits_.join_left_key[j]);
        ach |= uint64_t{1} << OrderBit(orders, splits_.join_right_key[j]);
      }
    }
    achievable[s] = ach;
  }

  presort_.resize(splits_.crossings.size());
  for (const SplitList::Split& split : splits_.splits) {
    for (int x = split.cross_begin; x < split.cross_end; ++x) {
      const SplitList::Crossing& cross = splits_.crossings[x];
      presort_[x].left =
          (achievable[split.s1] >> OrderBit(orders, cross.left_key)) & 1;
      presort_[x].right =
          (achievable[split.s2] >> OrderBit(orders, cross.right_key)) & 1;
    }
  }
  std::vector<uint64_t> composites;
  composites.reserve(splits_.composites.size());
  for (const SplitList::Composite& c : splits_.composites) {
    composites.push_back(c.subset);
  }
  // Composites ascend, so composite k sits in slot k.
  subset_rows_ = SubsetRowTable(card_, std::move(composites));
  assert(subset_rows_.size() == static_cast<int>(splits_.composites.size()));

  rows_.assign(full, 0.0);
  lb_.assign(full, kInf);
  sort_.assign(full, 0.0);
  tie_.assign(full, 0);
}

// Exact minimum over the scan alternatives BuildScanEntries enumerates, in
// its float derivation. A bit-equal tie between two scan alternatives makes
// the subset's best entry enumeration-order-dependent, so it marks the
// subset ambiguous.
void DpLowerBound::ComputeSingleton(int t) {
  const SelectivityResolver& sel = resolver_;
  const uint64_t s = uint64_t{1} << t;
  const TableInfo& ti = card_.table(t);
  const double raw = ti.stats.row_count;
  const double width = ti.stats.row_width_bytes;
  const int num_filters = static_cast<int>(card_.table_filters(t).size());
  const double out_rows = card_.ScanRows(t, sel);
  double best = cm_.SeqScanCost(raw, width, num_filters, out_rows);
  bool amb = false;
  for (int f : indexed_filters_[t]) {
    const double matched = raw * sel.FilterSelectivity(f);
    const double cost =
        cm_.IndexScanCost(raw, width, matched, num_filters - 1, out_rows);
    if (cost < best) {
      best = cost;
      amb = false;
    } else if (std::isfinite(cost) && cost == best) {
      amb = true;
    }
  }
  rows_[s] = out_rows;
  lb_[s] = best;
  sort_[s] = cm_.SortCost(out_rows, width_[s]);
  tie_[s] = amb ? 1 : 0;
}

void DpLowerBound::ComputeComposite(int slot) {
  const SelectivityResolver& sel = resolver_;
  const SplitList::Composite& c = splits_.composites[slot];
  const uint64_t s = c.subset;
  const double out_rows = subset_rows_.rows(slot);
  double best = kInf;
  // Ambiguity of the subset's minimum: set directly when two candidates
  // attain `best` bit-equally, inherited from the winning candidate's
  // children otherwise (a tie below propagates to every plan built on top
  // of the tied subtree).
  bool amb = false;

  // consider(cost, child_amb): fold one candidate into (best, amb).
  const auto consider = [&best, &amb](double cost, bool child_amb) {
    if (cost < best) {
      best = cost;
      amb = child_amb;
    } else if (std::isfinite(cost) && cost == best) {
      amb = true;
    }
  };

  for (int k = c.split_begin; k < c.split_end; ++k) {
    const SplitList::Split& split = splits_.splits[k];
    const uint64_t s1 = split.s1;
    const uint64_t s2 = split.s2;
    if (!std::isfinite(lb_[s1]) || !std::isfinite(lb_[s2])) continue;

    const InputEst le{rows_[s1], lb_[s1], width_[s1]};
    const InputEst re{rows_[s2], lb_[s2], width_[s2]};
    const bool pair_amb = tie_[s1] != 0 || tie_[s2] != 0;

    consider(cm_.HashJoinCost(le, re, out_rows), pair_amb);
    consider(cm_.MaterialNLJoinCost(le, re, out_rows), pair_amb);
    for (int x = split.cross_begin; x < split.cross_end; ++x) {
      consider(cm_.MergeJoinCostWithSorts(
                   le, re, out_rows, presort_[x].left ? 0.0 : sort_[s1],
                   presort_[x].right ? 0.0 : sort_[s2]),
               pair_amb);
    }
    if (split.inner_table >= 0) {
      const double raw = card_.table(split.inner_table).stats.row_count;
      for (int x = split.cross_begin; x < split.cross_end; ++x) {
        const SplitList::Crossing& cross = splits_.crossings[x];
        if (!cross.index_nl) continue;
        const double prefilter =
            rows_[s1] * raw * sel.JoinSelectivity(cross.join);
        // The index-lookup inner is rebuilt from scratch by the DP, so only
        // the outer side's tie flag matters here.
        consider(cm_.IndexNLJoinCostWithDescent(
                     le, descent_[split.inner_table], prefilter,
                     split.inner_quals, out_rows),
                 tie_[s1] != 0);
      }
    }
  }

  rows_[s] = out_rows;
  lb_[s] = best;
  sort_[s] = cm_.SortCost(out_rows, width_[s]);
  tie_[s] = amb ? 1 : 0;
}

double DpLowerBound::BoundAt(const DimVector& dims, bool* ambiguous) {
  if (!supported_) {
    if (ambiguous != nullptr) *ambiguous = true;
    return kInf;
  }
  resolver_.Inject(dims);
  // The row table moves with the same mask: its subsets are the composites.
  const uint32_t moved = subset_rows_.Refresh(resolver_);
  const uint64_t full = (uint64_t{1} << num_tables_) - 1;

  // The first call computes every subset, invariant ones included.
  if (!primed_ || moved != 0) {
    for (int t = 0; t < num_tables_; ++t) {
      if (primed_ && (table_dims_[t] & moved) == 0) continue;
      ComputeSingleton(t);
      ++subsets_computed_;
    }
    const int num_composites = static_cast<int>(splits_.composites.size());
    for (int k = 0; k < num_composites; ++k) {
      if (primed_ && (splits_.composites[k].dims & moved) == 0) continue;
      ComputeComposite(k);
      ++subsets_computed_;
    }
    primed_ = true;
    bound_ = lb_[full];
    if (query_->aggregate.enabled && std::isfinite(bound_)) {
      const double groups =
          query_->aggregate.EstimateGroups(*catalog_, rows_[full]);
      bound_ = cm_.AggregateCost({rows_[full], bound_, width_[full]}, groups);
    }
  }
  if (ambiguous != nullptr) *ambiguous = tie_[full] != 0;
  return bound_;
}

}  // namespace bouquet
