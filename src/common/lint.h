// Annotation vocabulary for the bouquet-* domain lint checks (tools/lint/).
//
// The MSO guarantee (paper Theorem 3) survives only while cost-budgeted
// execution is exact and repeatable: the scalar engine, the batch metering
// tape, and the buffer-manager accounting simulation must produce
// bit-identical charged cost, abort points, and page counters. The
// differential harness and the fuzz gate enforce that dynamically; the lint
// checks enforce the same invariants at analysis time, and this header is
// their vocabulary: tools/lint/bouquet_lint.py matches the macro tokens
// themselves. The macros are plain markers and expand to nothing, so
// enforcement never depends on the configured compiler.
//
// Statement-granular escapes use the standard clang-tidy comment forms —
// `// NOLINT(bouquet-…): reason` / `// NOLINTNEXTLINE(bouquet-…)` — which
// the engine honors. Every escape must carry a justification; the checks
// and their rationale are cataloged in DESIGN.md §13.

#ifndef BOUQUET_COMMON_LINT_H_
#define BOUQUET_COMMON_LINT_H_

/// Tags a field as MSO-charge-critical (the CostMeter accumulator, the
/// context page counters). bouquet-charge-order then requires an integral
/// type — the fixed-point charge type FixedCost or a count — so the
/// field's sums are exact however the engines group and order their adds
/// (the batch replay multiplies runs of equal charges, and an unbudgeted
/// execution adds its charges in no particular order). A floating-point
/// accumulator would show that grouping in the last bit, enough to move a
/// budget-abort point across engines.
#define BOUQUET_CHARGED

/// Escape hatch for bouquet-determinism, placed on the function (or type)
/// whose body legitimately touches a nondeterministic source inside an
/// accounting-critical module. Legitimate means telemetry-only: wall-clock
/// spans, duration stats — values that never feed charged cost, abort
/// decisions, replay state, or anything the differential harness compares.
/// Each use must carry a comment saying why the value cannot reach
/// accounting state.
#define BOUQUET_NONDETERMINISM_OK

#endif  // BOUQUET_COMMON_LINT_H_
