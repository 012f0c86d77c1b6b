#include "optimizer/cardinality.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace bouquet {

namespace {

// Returns the subtree's table mask.
uint64_t AppendJoinSubsetsRec(const PlanNode& node,
                              std::vector<uint64_t>* out) {
  if (node.is_scan()) return uint64_t{1} << node.table_idx;
  uint64_t mask = 0;
  if (node.left) mask |= AppendJoinSubsetsRec(*node.left, out);
  if (node.right) mask |= AppendJoinSubsetsRec(*node.right, out);
  if (node.is_join()) out->push_back(mask);
  return mask;
}

}  // namespace

void AppendJoinSubsets(const PlanNode& root, std::vector<uint64_t>* out) {
  AppendJoinSubsetsRec(root, out);
}

uint32_t MovedDims(const SelectivityResolver& sel, DimVector* seen) {
  const int dims = sel.query().NumDims();
  assert(dims <= 32 && "dim mask is 32 bits");
  seen->resize(dims);
  uint32_t moved = 0;
  for (int d = 0; d < dims; ++d) {
    const double v = sel.DimSelectivity(d);
    if (std::bit_cast<uint64_t>(v) != std::bit_cast<uint64_t>((*seen)[d])) {
      moved |= uint32_t{1} << d;
      (*seen)[d] = v;
    }
  }
  return moved;
}

CardinalityContext::CardinalityContext(const QuerySpec& query,
                                       const Catalog& catalog)
    : query_(&query),
      num_tables_(static_cast<int>(query.tables.size())) {
  tables_.reserve(num_tables_);
  for (const auto& name : query.tables) {
    tables_.push_back(&catalog.GetTable(name));
  }
  table_filters_.resize(num_tables_);
  for (size_t f = 0; f < query.filters.size(); ++f) {
    table_filters_[query.TableIndex(query.filters[f].table)].push_back(
        static_cast<int>(f));
  }
  join_lmask_.reserve(query.joins.size());
  join_rmask_.reserve(query.joins.size());
  for (const auto& j : query.joins) {
    join_lmask_.push_back(uint64_t{1} << query.TableIndex(j.left_table));
    join_rmask_.push_back(uint64_t{1} << query.TableIndex(j.right_table));
  }
  assert(query.error_dims.size() <= 32 && "dim mask is 32 bits");
  dim_masks_.reserve(query.error_dims.size());
  for (const auto& d : query.error_dims) {
    if (d.kind == DimKind::kSelection) {
      const auto& pred = query.filters[d.predicate_index];
      dim_masks_.push_back(uint64_t{1} << query.TableIndex(pred.table));
    } else {
      dim_masks_.push_back(join_lmask_[d.predicate_index] |
                           join_rmask_[d.predicate_index]);
    }
  }
}

double CardinalityContext::SubsetRows(uint64_t subset,
                                      const SelectivityResolver& sel) const {
  double rows = 1.0;
  uint64_t s = subset;
  while (s != 0) {
    const int t = __builtin_ctzll(s);
    s &= s - 1;
    rows *= tables_[t]->stats.row_count;
    for (int f : table_filters_[t]) rows *= sel.FilterSelectivity(f);
  }
  for (size_t j = 0; j < join_lmask_.size(); ++j) {
    if ((join_lmask_[j] & subset) && (join_rmask_[j] & subset)) {
      rows *= sel.JoinSelectivity(static_cast<int>(j));
    }
  }
  return rows;
}

double CardinalityContext::SubsetWidth(uint64_t subset) const {
  double width = 0.0;
  for (uint64_t bits = subset; bits != 0; bits &= bits - 1) {
    width += tables_[__builtin_ctzll(bits)]->stats.row_width_bytes;
  }
  return width;
}

double CardinalityContext::ScanRows(int table,
                                    const SelectivityResolver& sel) const {
  double out_sel = 1.0;
  for (int f : table_filters_[table]) out_sel *= sel.FilterSelectivity(f);
  return tables_[table]->stats.row_count * out_sel;
}

uint32_t CardinalityContext::SubsetDimMask(uint64_t subset) const {
  uint32_t mask = 0;
  for (size_t d = 0; d < dim_masks_.size(); ++d) {
    if ((dim_masks_[d] & subset) == dim_masks_[d]) {
      mask |= uint32_t{1} << d;
    }
  }
  return mask;
}

SubsetRowTable::SubsetRowTable(const CardinalityContext& ctx,
                               std::vector<uint64_t> subsets)
    : ctx_(&ctx), subsets_(std::move(subsets)) {
  std::sort(subsets_.begin(), subsets_.end());
  subsets_.erase(std::unique(subsets_.begin(), subsets_.end()),
                 subsets_.end());
  dims_.reserve(subsets_.size());
  for (uint64_t s : subsets_) dims_.push_back(ctx.SubsetDimMask(s));
  rows_.assign(subsets_.size(), 0.0);
}

int SubsetRowTable::Slot(uint64_t subset) const {
  const auto it = std::lower_bound(subsets_.begin(), subsets_.end(), subset);
  if (it == subsets_.end() || *it != subset) return -1;
  return static_cast<int>(it - subsets_.begin());
}

uint32_t SubsetRowTable::Refresh(const SelectivityResolver& sel) {
  const uint32_t moved = MovedDims(sel, &seen_);
  if (primed_ && moved == 0) return moved;
  for (size_t k = 0; k < subsets_.size(); ++k) {
    if (primed_ && (dims_[k] & moved) == 0) continue;
    rows_[k] = ctx_->SubsetRows(subsets_[k], sel);
  }
  primed_ = true;
  return moved;
}

}  // namespace bouquet
