// Vectorized batch-at-a-time executor, bit-compatible with the scalar
// engine's cost accounting.
//
// The data plane works on fixed-size column batches: scans evaluate filters
// column-wise into selection vectors (branch-light compaction loops), joins
// build/probe open-addressed chained hash tables over columnar build sides,
// and rows move as per-column gathers instead of per-row std::vector
// copies. None of that touches the CostMeter directly.
//
// Cost accounting instead rides a *metering tape*: every operator emits
// MeterEvents describing the exact per-tuple charge sequence the scalar
// engine would have produced — the same fixed-point charge units
// (exec_context.h), in the same order. Each output batch carries its tape
// plus per-row segment offsets; a consumer splices its child's segment for
// row j ahead of its own events for row j, reconstructing the scalar
// engine's global pipeline interleaving. Replay is integer arithmetic: a
// run of n equal charges is one multiply, and the unit a budget trips on
// is one division. That makes `charged`, the abort point, and the per-node
// tuple counters identical to a scalar run of the same plan — the property
// Theorem 3 (MSO) needs from budget-limited partial executions.
//
// An unbudgeted execution cannot abort, and integer sums do not depend on
// their order, so its charge events never reach a tape: Tape::Charge and
// friends add straight into the execution's ChargeTotals. Only page events
// (whose hit or miss depends on the buffer pool's replacement state, so
// they resolve in scalar order) and finish events stay on its tapes.
//
// Replay granularity: pipeline breakers (hash build, merge drain+sort,
// materialize, aggregate build) replay their phase's events eagerly per
// consumed input batch — every event of the phase is globally ordered
// before any later event, so this is order-safe and bounds post-abort
// wasted work to about one batch per operator. Pipelined events are
// replayed by the consumer: inner operators at most one child batch ahead,
// the root loop once per output batch. Data ahead of an abort is discarded,
// never accounted.

#ifndef BOUQUET_EXECUTOR_BATCH_H_
#define BOUQUET_EXECUTOR_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "executor/builder.h"
#include "executor/exec_context.h"
#include "optimizer/plan.h"

namespace bouquet {

namespace storage {
class BufferManager;
}  // namespace storage

namespace batch_internal {

/// Kinds of replayable accounting events.
enum class EvKind : uint8_t {
  kCharge,      ///< meter charge only
  kChargeScan,  ///< per successful unit: charge, then tuples_scanned++
  kChargeEmit,  ///< per successful unit: charge, then tuples_out++
  kFinish,      ///< Instrumentation::FinishNode (no charge)
  kPageSeq,     ///< paged storage: sequential access to (file, page)
  kPageRand,    ///< paged storage: random access to (file, page)
};

/// Charge-like events RLE-merge; structural events never do. Page events
/// are excluded because their charge is unknown until replay consults the
/// buffer pool (hit vs miss), so each access must stay an individual event
/// resolved in scalar charge order.
inline bool MergeableKind(EvKind k) {
  return k == EvKind::kCharge || k == EvKind::kChargeScan ||
         k == EvKind::kChargeEmit;
}

/// One run-length-encoded accounting event: `count` identical charges of
/// `unit`.
struct MeterEvent {
  FixedCost unit = 0;
  uint32_t count = 1;
  uint16_t node = 0;  ///< node slot (BatchExecState registration order)
  EvKind kind = EvKind::kCharge;
  uint16_t file = 0;  ///< kPageSeq/kPageRand: page file id
  uint32_t page = 0;  ///< kPageSeq/kPageRand: page number
};

/// What an unbudgeted execution's operators add in place of charge events:
/// the charge total and each node slot's tuple counts.
struct ChargeTotals {
  struct Counts {
    int64_t scanned = 0;
    int64_t out = 0;
  };
  FixedCost charged = 0;  ///< saturating sum
  std::vector<Counts> slots;
};

/// Append-only event sequence with merge-fences at row-segment boundaries.
/// A tape made over ChargeTotals records only page and finish events and
/// adds its charges to the totals instead.
class Tape {
 public:
  Tape() = default;
  explicit Tape(ChargeTotals* direct) : direct_(direct) {}

  void set_direct(ChargeTotals* direct) { direct_ = direct; }
  void Clear() {
    ev_.clear();
    fence_ = 0;
  }
  bool empty() const { return ev_.empty(); }
  size_t size() const { return ev_.size(); }
  const std::vector<MeterEvent>& events() const { return ev_; }

  void Charge(uint16_t node, FixedCost unit, uint32_t count = 1) {
    Add(node, unit, count, EvKind::kCharge);
  }
  void ChargeScan(uint16_t node, FixedCost unit, uint32_t count = 1) {
    Add(node, unit, count, EvKind::kChargeScan);
  }
  void ChargeEmit(uint16_t node, FixedCost unit) {
    Add(node, unit, 1, EvKind::kChargeEmit);
  }
  /// Records a page access whose price (hit vs miss) is resolved at replay
  /// time against the buffer pool's deterministic accounting state, in the
  /// exact position the scalar engine would have charged it.
  void PageSeq(uint16_t node, uint16_t file, uint32_t page) {
    ev_.push_back({0, 1, node, EvKind::kPageSeq, file, page});
  }
  void PageRand(uint16_t node, uint16_t file, uint32_t page) {
    ev_.push_back({0, 1, node, EvKind::kPageRand, file, page});
  }
  void Finish(uint16_t node) {
    ev_.push_back({0, 1, node, EvKind::kFinish});
    fence_ = ev_.size();
  }

  /// Forbids RLE-merging the next push into the current last event. Row
  /// segment boundaries must fence, or a later charge could be attributed
  /// to an earlier segment and replayed out of order after splicing.
  void Fence() { fence_ = ev_.size(); }

  /// Splices events [from, to) of another tape (a child row segment or
  /// tail) onto this one, preserving order. Only the first copied event can
  /// RLE-merge with this tape's tail: within any fence-free span the source
  /// already merged adjacent identical events, so the rest copy verbatim.
  void Append(const Tape& src, size_t from, size_t to) {
    if (from >= to) return;
    const MeterEvent* s = src.ev_.data();
    if (ev_.size() > fence_) {
      const MeterEvent& e = s[from];
      MeterEvent& b = ev_.back();
      if (b.kind == e.kind && b.node == e.node && b.unit == e.unit &&
          b.count <= UINT32_MAX - e.count && MergeableKind(e.kind)) {
        b.count += e.count;
        ++from;
      }
    }
    ev_.insert(ev_.end(), s + from, s + to);
  }

 private:
  void Add(uint16_t node, FixedCost unit, uint32_t count, EvKind k) {
    if (direct_ == nullptr) {
      if (count > 0) Push(node, unit, count, k);
      return;
    }
    direct_->charged = SatAdd(direct_->charged, SatMul(unit, count));
    if (k == EvKind::kChargeScan) direct_->slots[node].scanned += count;
    if (k == EvKind::kChargeEmit) direct_->slots[node].out += count;
  }
  void Push(uint16_t node, FixedCost unit, uint32_t count, EvKind k) {
    if (ev_.size() > fence_) {
      MeterEvent& b = ev_.back();
      if (b.kind == k && b.node == node && b.unit == unit &&
          b.count <= UINT32_MAX - count && MergeableKind(k)) {
        b.count += count;
        return;
      }
    }
    ev_.push_back({unit, count, node, k});
  }

  std::vector<MeterEvent> ev_;
  size_t fence_ = 0;
  ChargeTotals* direct_ = nullptr;
};

}  // namespace batch_internal

/// A batch of rows in columnar layout plus its metering tape. `seg_end[j]`
/// is the tape length after row j's events; events past `seg_end[n-1]` (the
/// tail) happened after the last emitted row (trailing failed scans, child
/// finishes) and are spliced after the consumer's own per-row events.
struct ColumnBatch {
  std::vector<std::vector<int64_t>> cols;
  int64_t n = 0;
  batch_internal::Tape tape;
  std::vector<uint32_t> seg_end;

  /// `direct`: BatchExecState::direct() of the execution the batch belongs
  /// to. Without it, every charge rides the tape (always correct).
  void Configure(size_t num_cols,
                 batch_internal::ChargeTotals* direct = nullptr) {
    cols.assign(num_cols, {});
    tape.set_direct(direct);
    Reset();
  }
  void Reset() {
    for (auto& c : cols) c.clear();
    n = 0;
    tape.Clear();
    seg_end.clear();
  }
  /// Declares the current tape position as the end of the next output row's
  /// event segment. Call once per appended row, after its events.
  void MarkRow() {
    ++n;
    tape.Fence();
    seg_end.push_back(static_cast<uint32_t>(tape.size()));
  }
  size_t SegBegin(int64_t j) const { return j == 0 ? 0 : seg_end[j - 1]; }
  size_t SegEnd(int64_t j) const { return seg_end[j]; }
  size_t TailBegin() const { return n == 0 ? 0 : seg_end[n - 1]; }
};

/// Per-execution state shared by a batch operator tree: node-slot registry,
/// cached counter pointers, the abort latch, the tape replayer, and an
/// unbudgeted execution's charge totals. Create one per execution, after
/// resetting the context's meter/instrumentation and setting the budget
/// (the entry points below do this; the registry caches NodeCounters
/// pointers, so it must not outlive an Instrumentation::Reset).
class BatchExecState {
 public:
  explicit BatchExecState(ExecContext* ctx)
      : ctx_(ctx), unbounded_(ctx->meter.unbounded()) {}

  ExecContext* ctx() { return ctx_; }
  bool aborted() const { return aborted_; }

  /// The totals an unbudgeted execution's tapes add their charges to, or
  /// null when the budget is finite (every charge must then be replayed in
  /// order, to find the abort point).
  batch_internal::ChargeTotals* direct() {
    return unbounded_ ? &totals_ : nullptr;
  }

  uint16_t Register(const PlanNode* node) {
    nodes_.push_back(node);
    nc_.push_back(nullptr);
    totals_.slots.emplace_back();
    return static_cast<uint16_t>(nodes_.size() - 1);
  }

  /// First-touch for a slot, in scalar ForNode order: called by every
  /// operator on its first NextBatch, before pulling children or emitting
  /// events, so counters exist for exactly the nodes a scalar run would
  /// have touched by the same point.
  void TouchSlot(uint16_t slot) {
    nc_[slot] = &ctx_->instr.Touch(nodes_[slot]);
  }

  /// Attaches the buffer pool for replay-time resolution of kPageSeq /
  /// kPageRand events and caches the three page prices from the context's
  /// cost params. Paged scan operators call this at construction; calling
  /// it repeatedly is harmless (idempotent for a fixed execution).
  void SetBuffer(storage::BufferManager* bm);

  /// Replays events onto the meter and counters in order. Returns false at
  /// (and latches) a budget abort. When `root_emits` is non-null, counts
  /// the successful kChargeEmit units of `root_slot` — the number of result
  /// rows that logically exist before the abort point.
  bool Replay(const std::vector<batch_internal::MeterEvent>& events,
              uint16_t root_slot = UINT16_MAX, int64_t* root_emits = nullptr);

  /// Moves what direct() gathered into the meter and the node counters.
  /// The entry points call it once the execution ends.
  void SettleDirect();

  /// Tape events Replay has applied, the one that tripped the budget
  /// included: an exact work counter for the metering tape.
  int64_t tape_events() const { return tape_events_; }

  /// Batch telemetry (data-plane only; never feeds accounting).
  int64_t batches_produced = 0;
  int64_t rows_produced = 0;

 private:
  /// Moves one slot's direct tuple counts into its node counters.
  void SettleSlot(uint16_t slot);

  ExecContext* ctx_;
  const bool unbounded_;
  std::vector<const PlanNode*> nodes_;
  std::vector<NodeCounters*> nc_;
  batch_internal::ChargeTotals totals_;
  bool aborted_ = false;
  int64_t tape_events_ = 0;
  /// Paged storage (null for in-memory databases). Page events call
  /// BufferManager::Access here, in replay order — the same deterministic
  /// accounting sequence the scalar engine produces at access time.
  storage::BufferManager* buffer_ = nullptr;
  FixedCost page_hit_cost_ = 0;
  FixedCost page_seq_cost_ = 0;
  FixedCost page_rand_cost_ = 0;
};

/// A batch-at-a-time operator. NextBatch appends rows/events to a batch the
/// caller has Configure()d for this operator's schema and Reset() before
/// the call. Contract mirrors the scalar engine:
///   kRow     — more input may follow (n may legitimately be 0: pipelined
///              operators hand back after each consumed child batch so the
///              consumer can replay before the next pull);
///   kDone    — final batch; tape ends with this operator's Finish;
///   kAborted — the meter tripped during an eagerly replayed phase, or the
///              tree is being re-pulled after an abort (a checked no-op,
///              same as the scalar engine).
class BatchOp {
 public:
  virtual ~BatchOp() = default;
  BatchOp(const BatchOp&) = delete;
  BatchOp& operator=(const BatchOp&) = delete;

  virtual ExecResult NextBatch(ColumnBatch* out) = 0;

  const std::vector<SchemaCol>& schema() const { return schema_; }
  uint16_t slot() const { return slot_; }
  int FindColumn(int table_idx, int col_idx) const;

 protected:
  BatchOp(const PlanNode* node, BatchExecState* st)
      : node_(node),
        st_(st),
        slot_(st->Register(node)),
        price_(st->ctx()->cost_model->params()) {}

  const PlanNode* node_;
  BatchExecState* st_;
  uint16_t slot_;
  const FixedPrices price_;
  std::vector<SchemaCol> schema_;
  bool touched_ = false;
};

/// Builds a batch operator tree over `state` (which must outlive the tree).
/// Binding rules are shared with the scalar builder (executor/binding.h);
/// failure conditions are identical. With an unbounded meter the tree adds
/// its charges to `state->direct()`; call state->SettleDirect() once it is
/// drained.
Result<std::unique_ptr<BatchOp>> BuildBatchExecutor(const PlanNode& root,
                                                    BatchExecState* state);

/// Batch-engine equivalents of ExecutePlan/ExecuteSpilled: same outcome
/// semantics, same meter/instrumentation side effects (bit-identical
/// `cost_charged`, abort points, and per-node counters), same "exec.plan" /
/// "exec.node" spans plus one "exec.batch" child span summarizing batch
/// shape, and a `bouquet_exec_batch_rows` histogram when ctx->metrics is
/// set.
ExecutionOutcome ExecutePlanBatch(const PlanNode& root, ExecContext* ctx,
                                  double budget,
                                  std::vector<Row>* results = nullptr);
ExecutionOutcome ExecuteSpilledBatch(const PlanNode& subtree_root,
                                     ExecContext* ctx, double budget);

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_BATCH_H_
