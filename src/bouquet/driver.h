// Real-data bouquet execution driver (Section 6.7 / Table 3).
//
// Unlike the cost-based simulator, this driver actually runs the Volcano
// executor on generated data: plans are executed with cost-metered budgets,
// aborted executions jettison their intermediate results, per-node tuple
// counters feed the running selectivity location q_run, spill-mode
// executions run only the subtree up to the first error node, and the final
// completing execution returns the true query result rows.

#ifndef BOUQUET_BOUQUET_DRIVER_H_
#define BOUQUET_BOUQUET_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "bouquet/bouquet.h"
#include "bouquet/contour_index.h"
#include "executor/builder.h"
#include "executor/exec_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"

namespace bouquet {

/// Log entry for one partial/full execution.
struct DriverStep {
  /// Sentinel `contour` value for unbudgeted native runs (RunSinglePlan):
  /// the step belongs to no ladder contour. Contour-indexed consumers must
  /// bucket it explicitly — use HistogramSteps() instead of indexing
  /// `by_contour[step.contour]` directly.
  static constexpr int kNoContour = -1;

  int contour = 0;
  int plan_id = -1;
  std::string plan_signature;
  double budget = 0.0;
  double charged = 0.0;     ///< cost units actually consumed
  double wall_seconds = 0.0;
  /// Buffer-pool page accesses charged during this execution (zero on
  /// in-memory databases); reads are misses, hits are cached pages.
  int64_t page_reads = 0;
  int64_t page_hits = 0;
  /// Metering-tape events the batch engine replayed for this execution
  /// (ExecutionOutcome::tape_events); zero under the scalar engine.
  int64_t tape_events = 0;
  bool completed = false;
  bool spilled = false;
  int learned_dim = -1;
};

/// Outcome of a full bouquet-driven query execution.
struct DriverResult {
  bool completed = false;
  double total_cost_units = 0.0;
  double wall_seconds = 0.0;
  int num_executions = 0;
  int contours_crossed = 0;
  /// Always 0: every optimized climb starts at contour 0. Kept only
  /// because perfbench/exec_paged.cc still reads it; it goes once the
  /// benchmark drops the read.
  int warm_contours_skipped = 0;
  /// Page-access totals summed over all steps (zero on in-memory data).
  int64_t page_reads = 0;
  int64_t page_hits = 0;
  /// Diagram plan id of the completing plan, or -1 (the sentinel) when that
  /// plan is not interned in the diagram — which legitimately happens when
  /// the optimized run's final execution optimizes at the discovered q_run
  /// and finds a plan outside the POSP. `final_plan_signature` is the
  /// canonical identity in either case and is always set on completion.
  int final_plan = -1;
  std::string final_plan_signature;
  std::vector<Row> rows;  ///< the query result
  std::vector<DriverStep> steps;
  /// Optimized runs only: the final q_run lower bounds per error dimension
  /// — the selectivities the discovery process learned. Feed these into a
  /// SelectivityErrorLog to improve future dimension identification.
  DimVector discovered_selectivities;
};

/// Steps bucketed by contour with the DriverStep::kNoContour sentinel kept
/// out of the indexed counts: `by_contour[k]` counts steps on contour k
/// (sized to the deepest contour seen), `native` counts sentinel steps.
/// Every contour-indexed reducer (bench tables, service aggregations) must
/// go through this instead of using `step.contour` as a raw index, which
/// would either crash or silently fold native runs into contour counts.
struct ContourHistogram {
  std::vector<int64_t> by_contour;
  int64_t native = 0;
};

ContourHistogram HistogramSteps(const std::vector<DriverStep>& steps);

/// Executes a query via its plan bouquet against real data.
///
/// Thread-safety: a driver instance is NOT thread-safe (it funnels every
/// execution through its single QueryOptimizer). The supported concurrency
/// pattern — used by BouquetService — is one driver + one optimizer per
/// request, all sharing the same const bouquet/diagram and a Database whose
/// lazy index caches are internally locked.
class BouquetDriver {
 public:
  /// All referenced objects must outlive the driver. Builds the bouquet's
  /// ContourIndex for this driver.
  BouquetDriver(const PlanBouquet& bouquet, const PlanDiagram& diagram,
                QueryOptimizer* opt, Database* db);
  /// Reads `index`, which must be the ContourIndex of `bouquet` over
  /// `diagram` (a compiled bouquet's simulator keeps one), instead of
  /// building its own.
  BouquetDriver(const PlanBouquet& bouquet, const PlanDiagram& diagram,
                const ContourIndex& index, QueryOptimizer* opt, Database* db);

  /// Basic algorithm (the climb of climb.h): every plan on every contour,
  /// generic executions.
  DriverResult RunBasic();

  /// Optimized algorithm (the climb of climb.h): q_run tracking from
  /// instrumentation counters, spill-mode learning executions, and, once
  /// every error dimension is learned or the ladder is exhausted, a full
  /// execution of the plan that is optimal at the discovered location.
  ///
  /// Known limitation (Section 5.2's "independent appearances" caveat): two
  /// error dimensions whose predicates are evaluated at the *same* plan node
  /// in every bouquet plan cannot be separated by node-level tuple counters,
  /// so neither is learned; execution then degrades gracefully to
  /// contour-climbing with full budgets (completion and the guarantee are
  /// unaffected, only the learning optimizations are lost).
  DriverResult RunOptimized();

  /// Executes a single plan to completion without budget (the NAT baseline
  /// and the oracle "optimal at q_a" comparison of Table 3). Emits exactly
  /// one DriverStep (contour -1 = "no contour, native run") so aggregations
  /// over `steps` count native runs like every other execution path.
  DriverResult RunSinglePlan(const PlanNode& root);

  /// Attaches observability sinks (either may be null). Spans nest under
  /// `parent` when given (e.g. the service's request span); pass nullptr
  /// for a self-rooted trace. Metric instruments are resolved once here so
  /// the run loops only touch pre-bound counters.
  void SetObservability(obs::Tracer* tracer, obs::MetricsRegistry* metrics,
                        const obs::Span* parent = nullptr);

  /// Selects the execution engine for every subsequent (partial) execution.
  /// Defaults to the vectorized batch engine, which every serving path
  /// runs; tests and benches select the scalar engine, the oracle the batch
  /// engine's bit-identical accounting, step sequences and result multisets
  /// are checked against (the differential harness).
  void SetEngine(ExecEngine engine) { engine_ = engine; }
  ExecEngine engine() const { return engine_; }

 private:
  class Backend;  // the climb's step over the executor

  // Pre-resolved metric instruments (null when no registry is attached).
  struct Instruments {
    obs::Counter* executions = nullptr;
    obs::Counter* contour_crossings = nullptr;
    obs::Counter* spills = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* dims_learned = nullptr;
    obs::Histogram* budget_utilization = nullptr;
    obs::Histogram* batch_rows = nullptr;  ///< the executor's, per root batch
  };
  // Fills `span` (started before the execution so operator spans nest
  // under it) with the step's record, ends it, and updates the metrics.
  void ObserveStep(const DriverStep& step, obs::Span* span);
  // One execution of `root` at step.budget (step.spilled: that subtree only,
  // returning no rows) under a "driver.step" span nested in `parent`. Fills
  // the step's outcome, appends it to res->steps and adds its charge and
  // page counts to the totals. `ctx` keeps the instrumentation counters for
  // a harvest.
  void RunStep(const PlanNode& root, DriverStep step, const obs::Span* parent,
               ExecContext* ctx, std::vector<Row>* rows, DriverResult* res);
  // Updates q_run lower bounds from the instrumentation of a finished or
  // aborted execution of `plan_root`; returns true if any bound moved.
  bool HarvestSelectivities(const PlanNode& plan_root, ExecContext* ctx,
                            DimVector* qrun, std::vector<bool>* learned);

  const PlanBouquet* bouquet_;
  const PlanDiagram* diagram_;
  QueryOptimizer* opt_;
  Database* db_;
  std::unique_ptr<const ContourIndex> own_index_;  // null when shared
  const ContourIndex* index_;
  ExecEngine engine_ = ExecEngine::kBatch;
  obs::Tracer* tracer_ = nullptr;
  Instruments ins_;
  uint64_t trace_parent_ = 0;  ///< parent span id for the run root span
  uint64_t trace_id_ = 0;
};

}  // namespace bouquet

#endif  // BOUQUET_BOUQUET_DRIVER_H_
