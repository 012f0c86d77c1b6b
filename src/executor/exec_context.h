// Execution context: cost metering + shared state for a (partial) execution.
//
// The CostMeter charges the same abstract units the cost model prices plans
// in, so "running-cost(P) <= cost-budget(IC)" — the loop condition of the
// paper's bouquet algorithms (Figures 7 and 13) — is enforced consistently
// with the isocost contours computed at compile time.
//
// Charged cost is fixed point: a FixedCost counts quanta of 2^-30 cost
// units in an int64_t, which leaves about 8.6e9 units of headroom. Each
// charge unit is rounded once, where it is computed (FixedFromCost, in
// FixedPrices below and in charge_units.h), and budgets round down once
// when the meter takes them.
// From there every sum is exact integer arithmetic, so it does not depend
// on the order of the adds: the scalar engine and the batch engine's tape
// replay agree bit for bit however they group their charges, and an
// execution that cannot abort (an infinite budget) need not order its
// charges at all (batch.h). `double` appears only at the API boundary:
// CostFromFixed is exact below 2^23 units, so a run that stayed within its
// rounded-down budget also stayed within the double budget.

#ifndef BOUQUET_EXECUTOR_EXEC_CONTEXT_H_
#define BOUQUET_EXECUTOR_EXEC_CONTEXT_H_

#include <cstdint>
#include <limits>

#include "catalog/catalog.h"
#include "common/lint.h"
#include "executor/instrument.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/cost_model.h"
#include "query/query_spec.h"
#include "storage/index.h"

namespace bouquet {

/// Charged cost in quanta of 2^-30 cost units.
using FixedCost = int64_t;

/// Budget of an unbudgeted execution (a +inf budget). Charges saturate
/// here, so no charge total ever exceeds it.
inline constexpr FixedCost kUnboundedCost =
    std::numeric_limits<FixedCost>::max();
/// Largest finite budget; finite budgets beyond the range clamp to it, so
/// a charge total that saturated still trips them.
inline constexpr FixedCost kMaxFiniteCost = kUnboundedCost - 1;

/// Reports a NaN or negative cost and aborts the process.
[[noreturn]] void FailFixedCost(double cost);

/// The one conversion of a double cost (a charge unit or a budget) into
/// FixedCost, rounding down. Its checks hold in every build: NaN or a
/// negative value aborts the process before any float-to-int cast (which
/// would be undefined behaviour), +inf maps to kUnboundedCost, and finite
/// values beyond the range clamp to kMaxFiniteCost.
inline FixedCost FixedFromCost(double cost) {
  if (!(cost >= 0.0)) FailFixedCost(cost);
  const double quanta = cost * 0x1p30;  // exact: a power-of-two scale
  if (quanta >= 0x1p63) {
    return cost == std::numeric_limits<double>::infinity() ? kUnboundedCost
                                                           : kMaxFiniteCost;
  }
  return static_cast<FixedCost>(quanta);  // truncation: floor for quanta >= 0
}

/// Cost units of a fixed-point charge; exact below 2^23 units.
inline double CostFromFixed(FixedCost q) {
  return static_cast<double>(q) * 0x1p-30;
}

/// a + b for non-negative charges, saturating at kUnboundedCost.
inline FixedCost SatAdd(FixedCost a, FixedCost b) {
  FixedCost sum;
  return __builtin_add_overflow(a, b, &sum) ? kUnboundedCost : sum;
}

/// `count` charges of `unit`, saturating at kUnboundedCost.
inline FixedCost SatMul(FixedCost unit, int64_t count) {
  FixedCost product;
  return __builtin_mul_overflow(unit, count, &product) ? kUnboundedCost
                                                       : product;
}

/// The single-parameter charge units both engines price, each rounded once.
/// A charge computed from several parameters (a scan's per-row charge, say)
/// rounds its double sum once, in its function in charge_units.h.
struct FixedPrices {
  explicit FixedPrices(const CostParams& p)
      : tuple(FixedFromCost(p.cpu_tuple_cost)),
        op(FixedFromCost(p.cpu_operator_cost)),
        page_hit(FixedFromCost(p.buffer_hit_page_cost)),
        page_seq(FixedFromCost(p.seq_page_cost)),
        page_rand(FixedFromCost(p.random_page_cost)) {}

  FixedCost tuple;      ///< cpu_tuple_cost: one emitted row
  FixedCost op;         ///< cpu_operator_cost
  FixedCost page_hit;   ///< buffer_hit_page_cost: a buffer-pool hit
  FixedCost page_seq;   ///< seq_page_cost: a sequential miss
  FixedCost page_rand;  ///< random_page_cost: a random miss
};

/// Accumulates fixed-point charges; trips once the budget is exceeded.
class CostMeter {
 public:
  void set_budget(double budget) { budget_ = FixedFromCost(budget); }
  FixedCost budget() const { return budget_; }
  FixedCost charged() const { return charged_; }
  /// True for an infinite budget: nothing can trip the meter.
  bool unbounded() const { return budget_ == kUnboundedCost; }

  /// Adds `units`; returns false (and stays tripped) once charged > budget.
  bool Charge(FixedCost units) {
    charged_ = SatAdd(charged_, units);
    return charged_ <= budget_;
  }

  bool exhausted() const { return charged_ > budget_; }

  void Reset() {
    charged_ = 0;
    budget_ = kUnboundedCost;
  }

 private:
  /// BOUQUET_CHARGED: an integral type, so charged sums are exact and
  /// independent of the order of the adds; see common/lint.h.
  BOUQUET_CHARGED FixedCost charged_ = 0;
  FixedCost budget_ = kUnboundedCost;
};

/// Everything an operator tree needs at run time. Owned by the caller; must
/// outlive the operators built against it.
struct ExecContext {
  const QuerySpec* query = nullptr;
  const Catalog* catalog = nullptr;
  Database* db = nullptr;  ///< non-const: index caches build lazily
  const CostModel* cost_model = nullptr;
  CostMeter meter;
  Instrumentation instr;
  /// Optional observability sink (null = tracing off, zero overhead).
  /// When set, every execution emits an "exec.plan" span under
  /// (trace_parent, trace_id) and every finished operator node becomes an
  /// "exec.node" child span via the instrumentation finish hook.
  obs::Tracer* tracer = nullptr;
  uint64_t trace_parent = 0;
  uint64_t trace_id = 0;
  /// Optional histogram of rows per root batch (batch engine only; null =
  /// off), resolved once by the caller: `bouquet_exec_batch_rows`.
  obs::Histogram* batch_rows = nullptr;
  /// Batch engine: rows per column batch. Any value >= 1 is legal (the
  /// differential harness runs degenerate sizes like 1 and 3); cost
  /// accounting is independent of the choice by construction.
  int batch_size = 1024;

  /// Paged-storage accounting (zero when the database is purely in-memory).
  /// Every buffer-pool Access() the meter charged for is counted here:
  /// misses charge seq/random_page_cost, hits charge buffer_hit_page_cost.
  /// The property oracle cross-checks page_reads_charged against the buffer
  /// manager's miss-count delta — only executors call Access, so the two
  /// must agree exactly.
  BOUQUET_CHARGED int64_t page_reads_charged = 0;
  BOUQUET_CHARGED int64_t page_hits_charged = 0;
};

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_EXEC_CONTEXT_H_
