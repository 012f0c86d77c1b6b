#include "query/query_spec.h"

#include "common/str_util.h"
#include "query/join_graph.h"

namespace bouquet {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLess:
      return "<";
    case CompareOp::kLessEqual:
      return "<=";
    case CompareOp::kGreater:
      return ">";
    case CompareOp::kGreaterEqual:
      return ">=";
    case CompareOp::kEqual:
      return "=";
  }
  return "?";
}

double AggregateSpec::EstimateGroups(const Catalog& catalog,
                                     double input_rows) const {
  double groups = 1.0;
  for (const auto& [table, column] : group_by) {
    const TableInfo& t = catalog.GetTable(table);
    groups *= t.columns[t.ColumnIndex(column)].stats.ndv < 1.0
                  ? 1.0
                  : t.columns[t.ColumnIndex(column)].stats.ndv;
  }
  groups = groups < input_rows ? groups : input_rows;
  return groups < 1.0 ? 1.0 : groups;
}

int QuerySpec::TableIndex(const std::string& table) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table) return static_cast<int>(i);
  }
  return -1;
}

Status QuerySpec::Validate(const Catalog& catalog) const {
  if (tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  if (tables.size() > 20) {
    return Status::InvalidArgument("too many tables (max 20)");
  }
  if (joins.size() > 64) {
    return Status::InvalidArgument("too many join predicates (max 64)");
  }
  // Error-dimension masks (CardinalityContext::SubsetDimMask, MovedDims)
  // are 32 bits.
  if (error_dims.size() > 32) {
    return Status::InvalidArgument("too many error dimensions (max 32)");
  }
  for (const auto& t : tables) {
    if (!catalog.HasTable(t)) {
      return Status::NotFound(StrPrintf("unknown table '%s'", t.c_str()));
    }
  }
  for (const auto& j : joins) {
    if (TableIndex(j.left_table) < 0 || TableIndex(j.right_table) < 0) {
      return Status::InvalidArgument("join references table not in query");
    }
    if (j.left_table == j.right_table) {
      return Status::InvalidArgument("self-join predicates unsupported");
    }
    if (catalog.GetTable(j.left_table).ColumnIndex(j.left_column) < 0 ||
        catalog.GetTable(j.right_table).ColumnIndex(j.right_column) < 0) {
      return Status::NotFound("join references unknown column");
    }
  }
  for (const auto& f : filters) {
    if (TableIndex(f.table) < 0) {
      return Status::InvalidArgument("filter references table not in query");
    }
    if (catalog.GetTable(f.table).ColumnIndex(f.column) < 0) {
      return Status::NotFound(StrPrintf("unknown column '%s.%s'",
                                        f.table.c_str(), f.column.c_str()));
    }
  }
  for (const auto& d : error_dims) {
    const int limit = d.kind == DimKind::kSelection
                          ? static_cast<int>(filters.size())
                          : static_cast<int>(joins.size());
    if (d.predicate_index < 0 || d.predicate_index >= limit) {
      return Status::OutOfRange("error dimension predicate index out of range");
    }
    if (!(d.lo > 0.0) || !(d.lo <= d.hi) || d.hi > 1.0) {
      return Status::InvalidArgument(
          "error dimension range must satisfy 0 < lo <= hi <= 1");
    }
  }
  if (aggregate.enabled) {
    for (const auto& [table, column] : aggregate.group_by) {
      if (TableIndex(table) < 0 ||
          catalog.GetTable(table).ColumnIndex(column) < 0) {
        return Status::NotFound("aggregate group-by column unknown");
      }
    }
    if (aggregate.func != AggregateSpec::Func::kCount) {
      if (TableIndex(aggregate.agg_table) < 0 ||
          catalog.GetTable(aggregate.agg_table)
                  .ColumnIndex(aggregate.agg_column) < 0) {
        return Status::NotFound("aggregate input column unknown");
      }
    }
  }
  if (tables.size() > 1) {
    JoinGraph graph(*this);
    const uint64_t all = (uint64_t{1} << tables.size()) - 1;
    if (!graph.IsConnectedSubset(all)) {
      return Status::InvalidArgument("join graph is not connected");
    }
  }
  return Status::Ok();
}

}  // namespace bouquet
