// Volcano-style physical operators with budget-limited execution.
//
// Every Next() call may return kAborted when the context's CostMeter trips;
// the partial state (instrumentation counters) remains readable afterwards,
// which is exactly what the bouquet's cost-limited partial executions need.
// Rows are flat int64 vectors; each operator publishes its output schema as
// (query-table-index, column-index) pairs so predicates can be bound by the
// builder.
//
// Abort resumption contract: once a Next() call has returned kAborted the
// meter stays tripped, and every further Next() on any operator of the tree
// is a checked no-op — it returns kAborted again without charging the meter
// or moving any instrumentation counter. Partial executions are resumed by
// re-running the plan under a larger budget (the bouquet contract jettisons
// intermediate results), never by re-pulling an aborted iterator. The batch
// engine (batch.h) honors the same contract at NextBatch() granularity.

#ifndef BOUQUET_EXECUTOR_OPERATORS_H_
#define BOUQUET_EXECUTOR_OPERATORS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "executor/exec_context.h"
#include "optimizer/plan.h"

namespace bouquet {

namespace storage {
class SpillWriter;
}  // namespace storage

using Row = std::vector<int64_t>;

/// Outcome of pulling one row.
enum class ExecResult {
  kRow,      ///< *out holds a row
  kDone,     ///< input exhausted
  kAborted,  ///< cost budget exhausted mid-stream
};

/// Column slot in an operator's output row.
struct SchemaCol {
  int table_idx;  ///< index into QuerySpec::tables
  int col_idx;    ///< column index within that table
};

/// Abstract iterator.
class Operator {
 public:
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Pulls the next row into *out.
  virtual ExecResult Next(Row* out) = 0;

  const std::vector<SchemaCol>& schema() const { return schema_; }

 protected:
  Operator() = default;
  std::vector<SchemaCol> schema_;
};

/// Builds an operator tree for (a subtree of) a physical plan against real
/// data, through the binder both engines share (binding.h). Fails when a
/// selection predicate lacks a constant (abstract cost-model-only queries
/// cannot be executed) or a predicate names a column the data lacks.
Result<std::unique_ptr<Operator>> BuildExecutor(const PlanNode& root,
                                                ExecContext* ctx);

/// Where a drain loop (either engine's) puts the rows it emits: appended to
/// `rows`, written to a spill segment, or, with both null, counted only.
struct RowSink {
  std::vector<Row>* rows = nullptr;
  storage::SpillWriter* spill = nullptr;

  /// False when Put would drop the row, so a drain loop need not make it.
  bool keeps() const;
  void Put(const Row& row) const;
};

/// Drains an operator to completion (or budget exhaustion) into `sink`.
/// Returns kDone or kAborted; row count is in *emitted.
ExecResult DrainOperator(Operator* op, const RowSink& sink, int64_t* emitted);

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_OPERATORS_H_
