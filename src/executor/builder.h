// High-level execution entry points over either engine: budget-limited
// full-plan execution and spilled subtree execution. builder.cc holds the
// one execution frame (meter and instrumentation reset, spans, build
// failure, spill writer, outcome); an engine supplies its operator tree,
// its drain loop and any span of its own.
//
// "Spilled" execution (Section 5.3 of the paper) runs only the subtree up to
// and including the first error-prone node and discards its output, so the
// entire cost budget is spent on learning that node's selectivity instead of
// on downstream processing.

#ifndef BOUQUET_EXECUTOR_BUILDER_H_
#define BOUQUET_EXECUTOR_BUILDER_H_

#include <vector>

#include "executor/operators.h"

namespace bouquet {

/// Result of one (possibly partial) plan execution.
struct ExecutionOutcome {
  ExecResult status = ExecResult::kDone;
  int64_t rows_emitted = 0;
  double cost_charged = 0.0;
  /// Paged storage only (zero on in-memory databases): page accesses the
  /// meter charged, split by buffer-pool outcome. reads = misses priced at
  /// seq/random_page_cost; hits priced at buffer_hit_page_cost.
  int64_t page_reads = 0;
  int64_t page_hits = 0;
  /// Batch engine: metering-tape events replayed (charges, page accesses
  /// and node finishes; an unbudgeted run records no charge events). Zero
  /// for the scalar engine.
  int64_t tape_events = 0;
  /// True when the operator tree could not even be built (e.g. an abstract
  /// predicate without a constant); distinct from a budget abort — retrying
  /// with a larger budget cannot help.
  bool build_failed = false;
  Status build_status;
};

/// Which execution engine runs a plan. Both are bit-compatible in cost
/// accounting (identical `cost_charged`, abort points, and per-node
/// counters for the same plan/budget — see batch.h and the differential
/// harness in src/testing). The batch engine is the one the driver runs;
/// the scalar engine is the oracle that tests and benches check it against.
enum class ExecEngine {
  kScalar,  ///< tuple-at-a-time Volcano iterators (operators.h)
  kBatch,   ///< vectorized column batches with charge replay (batch.h)
};

/// Executes the full plan with the given cost budget on `engine`. Result
/// rows are appended to *results when non-null. Resets the context's meter
/// and instrumentation first (a fresh partial execution; prior intermediate
/// results are "jettisoned" per the basic bouquet contract). When
/// ctx->tracer is set, emits an "exec.plan" span, one "exec.node" child per
/// finished operator and, on the batch engine, one "exec.batch" child
/// summarizing the batch shape.
ExecutionOutcome ExecutePlanWith(ExecEngine engine, const PlanNode& root,
                                 ExecContext* ctx, double budget,
                                 std::vector<Row>* results = nullptr);

/// Executes only the given subtree (spill mode) on `engine`: its output is
/// written to spill pages on paged storage and otherwise discarded. The
/// budget covers the subtree alone.
ExecutionOutcome ExecuteSpilledWith(ExecEngine engine,
                                    const PlanNode& subtree_root,
                                    ExecContext* ctx, double budget);

/// ExecutePlanWith and ExecuteSpilledWith on the scalar oracle.
ExecutionOutcome ExecutePlan(const PlanNode& root, ExecContext* ctx,
                             double budget,
                             std::vector<Row>* results = nullptr);
ExecutionOutcome ExecuteSpilled(const PlanNode& subtree_root, ExecContext* ctx,
                                double budget);

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_BUILDER_H_
