// Declarative query specification: the unit of work the whole pipeline
// (optimizer -> ESS -> bouquet) operates on.
//
// Queries are conjunctive select-project-join blocks, matching the paper's
// workload (Section 6): a set of base relations, equi-join predicates forming
// a join graph, selection predicates on base columns, and a declaration of
// which predicate selectivities are error-prone (the ESS dimensions).

#ifndef BOUQUET_QUERY_QUERY_SPEC_H_
#define BOUQUET_QUERY_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"

namespace bouquet {

enum class CompareOp { kLess, kLessEqual, kGreater, kGreaterEqual, kEqual };

const char* CompareOpName(CompareOp op);

/// `table.column op constant` selection predicate. If `constant` is unset
/// (kNoConstant), the predicate is purely abstract (cost-model experiments)
/// and its selectivity comes from `default_selectivity` or injection.
struct SelectionPredicate {
  static constexpr int64_t kNoConstant = INT64_MIN;

  std::string table;
  std::string column;
  CompareOp op = CompareOp::kLess;
  int64_t constant = kNoConstant;
  /// Optimizer's estimate when the predicate is not an error dimension and no
  /// histogram/constant is available; < 0 means "derive from catalog stats".
  double default_selectivity = -1.0;

  bool has_constant() const { return constant != kNoConstant; }
};

/// Equi-join predicate `left.column = right.column`.
struct JoinPredicate {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;
  /// Optimizer's estimate when not an error dimension; < 0 means "derive from
  /// catalog NDVs" (Selinger's 1/max(ndv_l, ndv_r)).
  double default_selectivity = -1.0;
};

/// Which predicate a selectivity error dimension is attached to.
enum class DimKind { kSelection, kJoin };

/// One error-prone selectivity dimension of the ESS.
struct ErrorDimension {
  DimKind kind = DimKind::kJoin;
  int predicate_index = 0;  ///< into filters or joins, per `kind`
  double lo = 1e-4;         ///< smallest selectivity in the ESS range
  double hi = 1.0;          ///< largest selectivity (schematic cap, Sec. 4.1)
  std::string label;        ///< for reports, e.g. "p_retailprice"
};

/// Optional grouped aggregation on top of the join block (the benchmark
/// queries are SPJA; the aggregate sits above every error-prone node, so it
/// never participates in selectivity discovery).
struct AggregateSpec {
  enum class Func { kCount, kSum, kMin, kMax };

  bool enabled = false;
  /// Group-by columns as (table, column) names; empty = scalar aggregate.
  std::vector<std::pair<std::string, std::string>> group_by;
  Func func = Func::kCount;
  /// Aggregated column (ignored for kCount).
  std::string agg_table;
  std::string agg_column;

  /// Estimated output group count: the product of the group columns' NDVs,
  /// capped by the input cardinality (classical independence estimate).
  /// Shared by the enumerator and the recoster so their costs agree.
  double EstimateGroups(const Catalog& catalog, double input_rows) const;
};

/// A full query specification.
struct QuerySpec {
  std::string name;
  std::vector<std::string> tables;
  std::vector<JoinPredicate> joins;
  std::vector<SelectionPredicate> filters;
  std::vector<ErrorDimension> error_dims;
  AggregateSpec aggregate;

  int TableIndex(const std::string& table) const;

  /// Validates internal consistency against a catalog: tables exist, columns
  /// exist, predicate/dimension indexes in range, join graph connected, and
  /// at most 20 tables, 64 joins and 32 error dimensions.
  Status Validate(const Catalog& catalog) const;

  /// Dimensionality of the error-prone selectivity space.
  int NumDims() const { return static_cast<int>(error_dims.size()); }
};

}  // namespace bouquet

#endif  // BOUQUET_QUERY_QUERY_SPEC_H_
