#include "executor/builder.h"

#include "executor/batch.h"
#include "optimizer/plan_signature.h"
#include "storage/paged_table.h"

namespace bouquet {

namespace {

ExecutionOutcome RunTree(const PlanNode& root, ExecContext* ctx,
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
  auto built = BuildExecutor(root, ctx);
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
  storage::StorageManager* sm =
      ctx->db != nullptr ? ctx->db->storage() : nullptr;
  if (spilled && sm != nullptr) {
    // Spill-mode subtree output is jettisoned from the accounting's point
    // of view, but it physically materializes into temp pages through the
    // same buffer pool — the writer drops the segment when it dies.
    storage::SpillWriter spill(sm, built->get()->schema().size());
    int64_t count = 0;
    Row r;
    ExecResult st;
    while ((st = (*built)->Next(&r)) == ExecResult::kRow) {
      ++count;
      if (spill.ok()) spill.Append(r);
    }
    out.rows_emitted = count;
    out.status = st;
  } else {
    out.status = DrainOperator(built->get(), results, &out.rows_emitted);
  }
  out.cost_charged = CostFromFixed(ctx->meter.charged());
  out.page_reads = ctx->page_reads_charged;
  out.page_hits = ctx->page_hits_charged;
  if (exec_span.enabled()) {
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

}  // namespace

ExecutionOutcome ExecutePlan(const PlanNode& root, ExecContext* ctx,
                             double budget, std::vector<Row>* results) {
  return RunTree(root, ctx, budget, results, /*spilled=*/false);
}

ExecutionOutcome ExecuteSpilled(const PlanNode& subtree_root,
                                ExecContext* ctx, double budget) {
  return RunTree(subtree_root, ctx, budget, /*results=*/nullptr,
                 /*spilled=*/true);
}

ExecutionOutcome ExecutePlanWith(ExecEngine engine, const PlanNode& root,
                                 ExecContext* ctx, double budget,
                                 std::vector<Row>* results) {
  return engine == ExecEngine::kBatch
             ? ExecutePlanBatch(root, ctx, budget, results)
             : ExecutePlan(root, ctx, budget, results);
}

ExecutionOutcome ExecuteSpilledWith(ExecEngine engine,
                                    const PlanNode& subtree_root,
                                    ExecContext* ctx, double budget) {
  return engine == ExecEngine::kBatch
             ? ExecuteSpilledBatch(subtree_root, ctx, budget)
             : ExecuteSpilled(subtree_root, ctx, budget);
}

}  // namespace bouquet
