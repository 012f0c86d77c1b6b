// Annotation vocabulary for the bouquet-* domain lint checks (tools/lint/).
//
// The MSO guarantee (paper Theorem 3) survives only while cost-budgeted
// execution is exact and repeatable: the scalar engine, the batch metering
// tape, and the buffer-manager accounting simulation must produce
// bit-identical charged cost, abort points, and page counters. PR 7/8
// enforce that dynamically (differential harness, fuzz gate); the lint
// checks enforce the same invariants at analysis time, and this header is
// the shared vocabulary both enforcement engines key on:
//
//   * the clang-tidy plugin (tools/lint/, loaded with -load) matches the
//     [[clang::annotate("bouquet::…")]] attributes these macros expand to;
//   * the portable engine (tools/lint/bouquet_lint.py, used where Clang
//     dev headers are unavailable) matches the macro tokens themselves.
//
// Under non-Clang compilers the attributes vanish (GCC would warn about the
// unknown scoped attribute under -Wall otherwise); the macros stay visible
// to the portable engine either way, so enforcement never depends on the
// configured compiler.
//
// Statement-granular escapes use the standard clang-tidy comment forms —
// `// NOLINT(bouquet-…): reason` / `// NOLINTNEXTLINE(bouquet-…)` — which
// both engines honor. Every escape must carry a justification; the checks
// and their rationale are cataloged in DESIGN.md §13.

#ifndef BOUQUET_COMMON_LINT_H_
#define BOUQUET_COMMON_LINT_H_

#if defined(__clang__)
#define BOUQUET_LINT_ANNOTATE(tag) [[clang::annotate("bouquet::" tag)]]
#else
#define BOUQUET_LINT_ANNOTATE(tag)
#endif

/// Tags a field as MSO-charge-critical (the CostMeter accumulator, the
/// context page counters). bouquet-charge-order then requires an integral
/// type — the fixed-point charge type FixedCost or a count — so the
/// field's sums are exact however the engines group and order their adds
/// (the batch replay multiplies runs of equal charges, and an unbudgeted
/// execution adds its charges in no particular order). A floating-point
/// accumulator would show that grouping in the last bit, enough to move a
/// budget-abort point across engines.
#define BOUQUET_CHARGED BOUQUET_LINT_ANNOTATE("charged")

/// Escape hatch for bouquet-determinism, placed on the function (or type)
/// whose body legitimately touches a nondeterministic source inside an
/// accounting-critical module. Legitimate means telemetry-only: wall-clock
/// spans, duration stats — values that never feed charged cost, abort
/// decisions, replay state, or anything the differential harness compares.
/// Each use must carry a comment saying why the value cannot reach
/// accounting state.
#define BOUQUET_NONDETERMINISM_OK BOUQUET_LINT_ANNOTATE("nondeterminism_ok")

#endif  // BOUQUET_COMMON_LINT_H_
