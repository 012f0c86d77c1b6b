// The plan binder, written once for both executors.
//
// Both engines must bind filters, join keys, and residual equalities to the
// exact same row positions and index-qual ranges: the batch engine replays
// the scalar engine's per-tuple charge sequence (see batch.h), and any
// binding divergence would change which tuples are charged. BindPlan is one
// template over an engine's operator classes, the way bouquet/climb.h is
// one climb over two backends, so "same binding" is a structural property:
// BuildExecutor (operators.h) and BuildBatchExecutor (batch.h) are its two
// instantiations. An engine `E` provides
//
//   using Op;     the operator base class, with schema()
//   using State;  what each operator constructor takes after its node
//   static const ExecContext* Context(State*);
//   using SeqScan, IndexScan, HashJoin, MergeJoin, IndexNLJoin,
//         MaterialNLJoin, HashAggregate;
//
// with the constructors BindPlan calls. Children are constructed before
// their parent, left before right.

#ifndef BOUQUET_EXECUTOR_BINDING_H_
#define BOUQUET_EXECUTOR_BINDING_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "executor/operators.h"
#include "query/query_spec.h"

namespace bouquet {
namespace exec_internal {

/// A selection predicate bound to a row position.
struct BoundFilter {
  int pos;
  CompareOp op;
  int64_t constant;
};

inline bool EvalFilterValue(int64_t v, const BoundFilter& f) {
  switch (f.op) {
    case CompareOp::kLess:
      return v < f.constant;
    case CompareOp::kLessEqual:
      return v <= f.constant;
    case CompareOp::kGreater:
      return v > f.constant;
    case CompareOp::kGreaterEqual:
      return v >= f.constant;
    case CompareOp::kEqual:
      return v == f.constant;
  }
  return false;
}

inline bool EvalAll(const std::vector<int64_t>& row,
                    const std::vector<BoundFilter>& filters) {
  for (const auto& f : filters) {
    if (!EvalFilterValue(row[f.pos], f)) return false;
  }
  return true;
}

/// The inclusive range [lo, hi] of values a filter accepts; lo > hi when
/// none does.
inline std::pair<int64_t, int64_t> FilterRange(const BoundFilter& f) {
  const int64_t c = f.constant;
  switch (f.op) {
    case CompareOp::kLess:
      // `x < INT64_MIN` is unsatisfiable; guard the decrement overflow.
      if (c == INT64_MIN) return {1, 0};
      return {INT64_MIN, c - 1};
    case CompareOp::kLessEqual:
      return {INT64_MIN, c};
    case CompareOp::kGreater:
      // `x > INT64_MAX` is unsatisfiable; guard the increment overflow.
      if (c == INT64_MAX) return {1, 0};
      return {c + 1, INT64_MAX};
    case CompareOp::kGreaterEqual:
      return {c, INT64_MAX};
    case CompareOp::kEqual:
      return {c, c};
  }
  return {INT64_MIN, INT64_MAX};
}

/// An equi-join condition bound to positions in the combined row.
struct BoundEquality {
  int left_pos;   // position in combined (left ++ right) row
  int right_pos;  // position in combined row
};

/// A join node's predicates bound against its two sides.
struct BoundJoin {
  int left_key_pos = -1;   ///< the key's outer column, in the left row
  int right_key_pos = -1;  ///< the key's inner column, in the right row
  std::vector<BoundEquality> residual;  ///< the other predicates, in order
};

/// Position of table.column in `schema`, or -1 when the query or the data
/// table lacks the column or the schema does not carry it.
inline int ColumnPos(const QuerySpec& q, const Database& db,
                     const std::vector<SchemaCol>& schema,
                     const std::string& table, const std::string& column) {
  const int t = q.TableIndex(table);
  if (t < 0) return -1;
  const int c = db.table(q.tables[t]).ColumnIndex(column);
  for (size_t i = 0; c >= 0 && i < schema.size(); ++i) {
    if (schema[i].table_idx == t && schema[i].col_idx == c) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Binds selection predicates to columns of `table`. Fails when one has no
/// constant (an abstract, cost-model-only query) or names a column the
/// data table lacks.
inline Status BindFilters(const QuerySpec& q, const DataTable& table,
                          const std::vector<int>& filter_idxs,
                          std::vector<BoundFilter>* out) {
  for (int f : filter_idxs) {
    const SelectionPredicate& pred = q.filters[f];
    if (!pred.has_constant()) {
      return Status::FailedPrecondition(
          "cannot execute abstract predicate without constant: " +
          pred.table + "." + pred.column);
    }
    const int col = table.ColumnIndex(pred.column);
    if (col < 0) {
      return Status::NotFound("column missing in data table: " + pred.table +
                              "." + pred.column);
    }
    out->push_back({col, pred.op, pred.constant});
  }
  return Status::Ok();
}

/// Binds a join node's predicates to positions in the combined (left ++
/// right) row; `right` is the right child's schema, or an index nested-loop
/// join's inner table. Predicate `key_join` is the key and must cross the
/// two sides; the node's other predicates become the residual. Fails when
/// a predicate names a column on neither side.
inline Status BindJoin(const QuerySpec& q, const Database& db,
                       const PlanNode& node, int key_join,
                       const std::vector<SchemaCol>& left,
                       const std::vector<SchemaCol>& right, BoundJoin* out) {
  const int lw = static_cast<int>(left.size());
  const auto bind = [&](int j, BoundEquality* eq) {
    const auto pos = [&](const std::string& table, const std::string& column) {
      const int l = ColumnPos(q, db, left, table, column);
      if (l >= 0) return l;
      const int r = ColumnPos(q, db, right, table, column);
      return r >= 0 ? lw + r : -1;
    };
    const JoinPredicate& jp = q.joins[j];
    eq->left_pos = pos(jp.left_table, jp.left_column);
    eq->right_pos = pos(jp.right_table, jp.right_column);
    return eq->left_pos >= 0 && eq->right_pos >= 0;
  };
  BoundEquality key;
  if (key_join < 0 || !bind(key_join, &key)) {
    return Status::Internal("join predicate binding failed");
  }
  // Orient the key: one side in the outer (left) row, the other past it.
  const int a = std::min(key.left_pos, key.right_pos);
  const int b = std::max(key.left_pos, key.right_pos);
  if (a >= lw || b < lw) {
    return Status::Internal("join key not crossing children");
  }
  out->left_key_pos = a;
  out->right_key_pos = b - lw;
  for (int j : node.join_idxs) {
    if (j == key_join) continue;
    BoundEquality eq;
    if (!bind(j, &eq)) return Status::Internal("join predicate binding failed");
    out->residual.push_back(eq);
  }
  return Status::Ok();
}

/// Builds engine E's operator tree for (a subtree of) a physical plan.
template <class E>
Result<std::unique_ptr<typename E::Op>> BindPlan(const PlanNode& node,
                                                 typename E::State* state) {
  using OpPtr = std::unique_ptr<typename E::Op>;
  const QuerySpec& q = *E::Context(state)->query;
  const Database& db = *E::Context(state)->db;

  if (node.is_aggregate()) {
    auto child = BindPlan<E>(*node.left, state);
    if (!child.ok()) return child.status();
    const AggregateSpec& spec = q.aggregate;
    std::vector<int> group_positions;
    for (const auto& [table, column] : spec.group_by) {
      const int pos = ColumnPos(q, db, (*child)->schema(), table, column);
      if (pos < 0) return Status::Internal("group-by column not in input");
      group_positions.push_back(pos);
    }
    int agg_position = -1;  // COUNT reads no column
    if (spec.func != AggregateSpec::Func::kCount) {
      agg_position = ColumnPos(q, db, (*child)->schema(), spec.agg_table,
                               spec.agg_column);
      if (agg_position < 0) {
        return Status::Internal("aggregate column not in input");
      }
    }
    return OpPtr(std::make_unique<typename E::HashAggregate>(
        &node, state, std::move(child.value()), std::move(group_positions),
        agg_position, spec.func));
  }

  if (node.is_scan()) {
    const DataTable& dt = db.table(q.tables[node.table_idx]);
    std::vector<BoundFilter> filters;
    Status s = BindFilters(q, dt, node.filter_idxs, &filters);
    if (!s.ok()) return s;
    if (node.op == OpType::kIndexScan && node.index_filter >= 0) {
      std::vector<BoundFilter> qual;
      s = BindFilters(q, dt, {node.index_filter}, &qual);
      if (!s.ok()) return s;
      const auto [lo, hi] = FilterRange(qual[0]);
      return OpPtr(std::make_unique<typename E::IndexScan>(
          &node, state, std::move(filters), lo, hi, qual[0].pos));
    }
    return OpPtr(
        std::make_unique<typename E::SeqScan>(&node, state, std::move(filters)));
  }

  // Joins: the outer child first.
  auto left = BindPlan<E>(*node.left, state);
  if (!left.ok()) return left.status();
  BoundJoin join;

  // Index NL join: the inner table is probed through its hash index on the
  // key, so the right child is no operator; its filters bind to the inner
  // table's columns.
  if (node.op == OpType::kIndexNLJoin) {
    const int inner = node.right->table_idx;
    const DataTable& inner_dt = db.table(q.tables[inner]);
    std::vector<SchemaCol> inner_schema;
    for (int c = 0; c < inner_dt.num_columns(); ++c) {
      inner_schema.push_back({inner, c});
    }
    Status s = BindJoin(q, db, node, node.index_join, (*left)->schema(),
                        inner_schema, &join);
    if (!s.ok()) return s;
    std::vector<BoundFilter> inner_filters;
    s = BindFilters(q, inner_dt, node.right->filter_idxs, &inner_filters);
    if (!s.ok()) return s;
    return OpPtr(std::make_unique<typename E::IndexNLJoin>(
        &node, state, std::move(left.value()), inner, join.right_key_pos,
        join.left_key_pos, std::move(inner_filters),
        std::move(join.residual)));
  }

  auto right = BindPlan<E>(*node.right, state);
  if (!right.ok()) return right.status();
  // The hash and merge key is join_idxs[0] (the enumerator's contract).
  const Status s = BindJoin(
      q, db, node, node.join_idxs.empty() ? -1 : node.join_idxs[0],
      (*left)->schema(), (*right)->schema(), &join);
  if (!s.ok()) return s;
  switch (node.op) {
    case OpType::kHashJoin:
      return OpPtr(std::make_unique<typename E::HashJoin>(
          &node, state, std::move(left.value()), std::move(right.value()),
          join.left_key_pos, join.right_key_pos, std::move(join.residual)));
    case OpType::kMergeJoin:
      return OpPtr(std::make_unique<typename E::MergeJoin>(
          &node, state, std::move(left.value()), std::move(right.value()),
          join.left_key_pos, join.right_key_pos, std::move(join.residual)));
    case OpType::kMaterialNLJoin: {
      // Every predicate is a plain condition; the key goes last.
      const int lw = static_cast<int>((*left)->schema().size());
      join.residual.push_back({join.left_key_pos, lw + join.right_key_pos});
      return OpPtr(std::make_unique<typename E::MaterialNLJoin>(
          &node, state, std::move(left.value()), std::move(right.value()),
          std::move(join.residual)));
    }
    default:
      return Status::Internal("unsupported join operator in builder");
  }
}

}  // namespace exec_internal
}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_BINDING_H_
