#include "executor/builder.h"

#include <memory>
#include <optional>

#include "executor/batch.h"
#include "optimizer/plan_signature.h"
#include "storage/paged_table.h"

namespace bouquet {

namespace {

// An engine's part of one execution: it builds the operator tree and
// drains it. RunFrame below does everything else, for both engines.
struct ScalarRun {
  explicit ScalarRun(ExecContext* ctx) : ctx(ctx) {}
  Result<std::unique_ptr<Operator>> Build(const PlanNode& root) {
    return BuildExecutor(root, ctx);
  }
  ExecResult Drain(Operator* op, const RowSink& sink, ExecutionOutcome* out) {
    return DrainOperator(op, sink, &out->rows_emitted);
  }
  void Trace(const obs::Span&) {}

  ExecContext* ctx;
};

struct BatchRun {
  explicit BatchRun(ExecContext* ctx) : state(ctx) {}
  Result<std::unique_ptr<BatchOp>> Build(const PlanNode& root) {
    return BuildBatchExecutor(root, &state);
  }
  ExecResult Drain(BatchOp* op, const RowSink& sink, ExecutionOutcome* out) {
    const ExecResult st =
        DrainBatchOperator(op, &state, sink, &out->rows_emitted);
    out->tape_events = state.tape_events();
    return st;
  }
  // One "exec.batch" child span summarizing the batch shape.
  void Trace(const obs::Span& exec_span) {
    obs::Span s = obs::Tracer::BeginUnder(state.ctx()->tracer, "exec.batch",
                                          exec_span.id(),
                                          exec_span.trace_id());
    s.Num("batch_size", static_cast<double>(state.ctx()->batch_size))
        .Num("batches", static_cast<double>(state.batches_produced))
        .Num("batch_rows", static_cast<double>(state.rows_produced));
    s.End();
  }

  BatchExecState state;
};

template <class Run>
ExecutionOutcome RunFrame(const PlanNode& root, ExecContext* ctx,
                          double budget, std::vector<Row>* results,
                          bool spilled) {
  ctx->meter.Reset();
  ctx->meter.set_budget(budget);
  ctx->instr.Reset();
  ctx->page_reads_charged = 0;
  ctx->page_hits_charged = 0;

  // Observability: one span for this (partial) execution; every finished
  // operator node becomes a child span carrying its counters. The hook and
  // timing are (re)configured per execution so a context reused with the
  // tracer later detached stops paying for them.
  obs::Span exec_span;
  if (ctx->tracer != nullptr) {
    exec_span = obs::Tracer::BeginUnder(ctx->tracer, "exec.plan",
                                        ctx->trace_parent, ctx->trace_id);
    ctx->instr.EnableTiming(true);
    obs::Tracer* tracer = ctx->tracer;
    const uint64_t parent = exec_span.id();
    const uint64_t trace = exec_span.trace_id();
    ctx->instr.SetFinishHook(
        [tracer, parent, trace](const PlanNode* node,
                                const NodeCounters& nc) {
          obs::Span s =
              obs::Tracer::BeginUnder(tracer, "exec.node", parent, trace);
          s.Num("op", static_cast<double>(static_cast<int>(node->op)))
              .Num("tuples_out", static_cast<double>(nc.tuples_out))
              .Num("tuples_scanned", static_cast<double>(nc.tuples_scanned))
              .Num("node_wall_seconds", nc.wall_seconds);
          s.End();
        });
  } else {
    ctx->instr.EnableTiming(false);
    ctx->instr.SetFinishHook(nullptr);
  }

  ExecutionOutcome out;
  Run run(ctx);  // after the resets: a batch tree caches node counters
  auto built = run.Build(root);
  if (!built.ok()) {
    out.status = ExecResult::kAborted;
    out.build_failed = true;
    out.build_status = built.status();
    if (exec_span.enabled()) {
      exec_span.Flag("build_failed", true)
          .Str("signature", PlanSignature(root));
      exec_span.End();
    }
    return out;
  }
  // Spill-mode subtree output is jettisoned from the accounting's point of
  // view, but on paged storage it physically materializes into temp pages
  // through the same buffer pool; the writer drops the segment when it dies.
  storage::StorageManager* sm =
      ctx->db != nullptr ? ctx->db->storage() : nullptr;
  std::optional<storage::SpillWriter> spill;
  if (spilled && sm != nullptr) spill.emplace(sm, (*built)->schema().size());
  out.status =
      run.Drain(built->get(),
                RowSink{spilled ? nullptr : results, spill ? &*spill : nullptr},
                &out);
  out.cost_charged = CostFromFixed(ctx->meter.charged());
  out.page_reads = ctx->page_reads_charged;
  out.page_hits = ctx->page_hits_charged;
  if (exec_span.enabled()) {
    run.Trace(exec_span);
    exec_span.Num("budget", budget)
        .Num("charged", out.cost_charged)
        .Num("rows", static_cast<double>(out.rows_emitted))
        .Num("page_reads", static_cast<double>(out.page_reads))
        .Num("page_hits", static_cast<double>(out.page_hits))
        .Flag("completed", out.status == ExecResult::kDone)
        .Flag("spilled", spilled);
    exec_span.End();
  }
  return out;
}

ExecutionOutcome Execute(ExecEngine engine, const PlanNode& root,
                         ExecContext* ctx, double budget,
                         std::vector<Row>* results, bool spilled) {
  return engine == ExecEngine::kBatch
             ? RunFrame<BatchRun>(root, ctx, budget, results, spilled)
             : RunFrame<ScalarRun>(root, ctx, budget, results, spilled);
}

}  // namespace

ExecutionOutcome ExecutePlanWith(ExecEngine engine, const PlanNode& root,
                                 ExecContext* ctx, double budget,
                                 std::vector<Row>* results) {
  return Execute(engine, root, ctx, budget, results, /*spilled=*/false);
}

ExecutionOutcome ExecuteSpilledWith(ExecEngine engine,
                                    const PlanNode& subtree_root,
                                    ExecContext* ctx, double budget) {
  return Execute(engine, subtree_root, ctx, budget, /*results=*/nullptr,
                 /*spilled=*/true);
}

ExecutionOutcome ExecutePlan(const PlanNode& root, ExecContext* ctx,
                             double budget, std::vector<Row>* results) {
  return ExecutePlanWith(ExecEngine::kScalar, root, ctx, budget, results);
}

ExecutionOutcome ExecuteSpilled(const PlanNode& subtree_root,
                                ExecContext* ctx, double budget) {
  return ExecuteSpilledWith(ExecEngine::kScalar, subtree_root, ctx, budget);
}

}  // namespace bouquet
