// Exhaustive POSP generation: optimize the query at every ESS grid point.
//
// The task is embarrassingly parallel (Section 4.2 of the paper), so the
// generator optionally shards the grid across threads, each with its own
// QueryOptimizer instance, and merges per-shard results through signature
// interning. Two parallel backends exist:
//   * `num_threads > 1`: spawns ad-hoc std::threads (legacy path).
//   * `pool != nullptr`: shards across a shared ThreadPool (the service
//     layer's path; nest-safe, so a pool task may itself generate a POSP).
// Both backends produce a diagram bit-identical to the serial one: plans are
// interned in order of first occurrence over the linear grid order, which is
// invariant to how the grid is chunked (shards are merged in linear order).
//
// Incremental compilation (on by default): POSP diagrams are massively
// redundant — a handful of plans tile huge grid regions (Harish et al.,
// VLDB'07) — so each shard walks its points in linear (axis-major) order and,
// before running the full DP, recosts its already-materialized winner plans
// at the new point, in the order most likely to hit: the previous point's
// winner, the winners one step back on each axis, then the rest, newest
// plan first. A candidate is served without a DP call when its recost c* <=
// the optimistic scalar DP bound (optimizer/dp_bound) and every subset entry
// of the candidate (each scan and join the DP would keep) costs exactly the
// bound's minimum for that subset, attained by no other bound candidate.
// Both sides of that test are incremental: consecutive points of the walk
// differ in one dimension, the shard's DpLowerBound recomputes only the
// subsets that dimension touches, and each interned plan's PlanRecoster
// (optimizer/recost) only the nodes it touches, reading its join rows from
// the bound's row table; PospStats::bound_subsets and recost_nodes count
// that work exactly. The test itself is exact: bound <= optimal <= c*
// always holds (additive cost formulas are float-monotone in child costs and
// recosting reproduces the enumerator's exact float derivation), so the
// root comparison succeeds only when all three coincide bit-for-bit. That
// alone does not identify the DP's plan: a plan whose subtree costs more
// than the DP's can still round to the same total. Tightness at every
// subset does: bottom-up, each of the candidate's entries is then the DP's
// cheapest for its subset, and any other DP candidate reaching that cost
// would tie the bound there. Points where the bound's own minimum is tied
// (ambiguous) — structurally different plans at the same cost, which the DP
// breaks by enumeration order — always take the full DP. Skipped points
// reuse a plan the shard's DP already materialized, so signature interning
// order — first DP occurrence in linear order — is unchanged, and the
// emitted diagram is byte-identical to a memoryless run. A seeded
// deterministic audit additionally re-runs the full DP on a random sample of
// skipped points and counts disagreements (none expected; see PospStats).
//
// Thread-safety: the query, catalog, and grid are only read; every shard
// owns a private QueryOptimizer, DP bound and recosters; the diagram is
// assembled single-threaded after the shards join. No shared mutable state is
// reachable from workers.
//
// Shrunken ESS boxes: the generator is agnostic to where the grid's axes
// came from — the feedback layer (src/feedback/shrunken_box.h) may hand it a
// grid built over the observed selectivity support instead of the declared
// ranges (EssGrid's explicit-box constructor). Fewer points and a tighter
// cost range mean both fewer DP calls and better recost-skip locality;
// bench_feedback measures the effect against the full-box compile.

#ifndef BOUQUET_ESS_POSP_GENERATOR_H_
#define BOUQUET_ESS_POSP_GENERATOR_H_

#include <cstdint>

#include "catalog/catalog.h"
#include "common/thread_pool.h"
#include "ess/ess_grid.h"
#include "ess/plan_diagram.h"
#include "optimizer/cost_model.h"
#include "query/query_spec.h"

namespace bouquet {

struct PospOptions {
  /// Ad-hoc thread count; honored exactly (no hardware_concurrency clamp) so
  /// sharding behavior is reproducible across machines. With a pool it only
  /// raises the shard-count ceiling (the pool supplies the workers).
  int num_threads = 1;
  /// When set, grid rows are partitioned across this pool instead of ad-hoc
  /// threads. The pool is borrowed, not owned.
  ThreadPool* pool = nullptr;
  /// Grids smaller than this stay serial (per-shard optimizer construction
  /// is not free), and no shard is ever smaller than this (the tail is
  /// absorbed by the last shard). Lower it in tests to force multi-shard
  /// runs.
  uint64_t min_shard_points = 256;
  /// Switch for the recost-first fast path and its DP bound. Off = one full
  /// DP per point; the output diagram is identical either way. It does not
  /// turn off PlanEnumerator's invariant-subplan memo, which every
  /// OptimizeAt uses. A query DpLowerBound does not support (more than 64
  /// key orders) always compiles as if this were off.
  bool incremental = true;
  /// Fraction of *skipped* points whose plan+cost are re-derived by a full
  /// DP and compared (differential audit). Deterministic in (audit_seed,
  /// point index), hence shard-independent. 0 disables the audit.
  double audit_fraction = 0.01;
  uint64_t audit_seed = 0x5eed5eedULL;
};

/// Statistics of a generation run (compile-time overheads, Section 6.1).
struct PospStats {
  /// Points served by a full DP invocation. Audit re-derivations are
  /// counted separately.
  long long dp_calls = 0;
  long long recost_hits = 0;   ///< points served by the recost fast path
  long long memo_hits = 0;     ///< DP subproblems reused across points
  long long audit_checks = 0;  ///< skipped points re-derived by a full DP
  long long audit_failures = 0;  ///< audit disagreements (expected 0)
  /// Exact work counters of the two incremental layers: subset bounds
  /// computed by DpLowerBound (singletons included) and plan nodes computed
  /// by the fast path's recosts (PlanRecoster). Deterministic for a given
  /// sharding, so CI gates bound_subsets like dp_calls.
  long long bound_subsets = 0;
  long long recost_nodes = 0;
  long long shards = 0;          ///< parallel shards actually run
  double wall_seconds = 0.0;
};

/// Optimizes every grid point; the returned diagram's costs form the PIC.
/// The grid must outlive the returned diagram.
PlanDiagram GeneratePosp(const QuerySpec& query, const Catalog& catalog,
                         CostParams params, const EssGrid& grid,
                         const PospOptions& options = {},
                         PospStats* stats = nullptr);

}  // namespace bouquet

#endif  // BOUQUET_ESS_POSP_GENERATOR_H_
