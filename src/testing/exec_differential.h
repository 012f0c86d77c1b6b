// Batch-vs-scalar execution differential oracle.
//
// The vectorized batch engine (executor/batch.h) claims *bit-compatible*
// cost accounting with the tuple-at-a-time scalar engine: identical
// fixed-point charges, identical abort points across any budget, and
// identical per-node tuple counters — the properties Theorem 3's MSO
// guarantee rests on. This module turns that claim into a machine-checked
// property over generated instances:
//
//   1. MaterializeInstance() turns a FuzzInstance's abstract schema into
//      real DataTables (sequential PKs, PK->FK join columns honoring the
//      instance's join graph, skewed data columns), syncs a catalog from
//      the data, and binds every selection constant against the real
//      histograms — so the very instances that drive the compile-time
//      oracles also drive real executions.
//   2. CheckExecDifferential() optimizes the instance at several ESS
//      corners (deduped by plan signature), runs each plan under both
//      engines, and compares: full runs, budget sweeps including
//      abort-at-the-first-tuple, the total and one quantum below it
//      (abort exactly at the last charge), the scalar oracle's charge at
//      each interior abort and one quantum below it, spill-mode subtree
//      executions, and degenerate batch sizes (1, 3, non-powers of two).
//
// Any divergence is reported with the plan signature, budget, and batch
// size that produced it, so a failure is directly replayable.

#ifndef BOUQUET_TESTING_EXEC_DIFFERENTIAL_H_
#define BOUQUET_TESTING_EXEC_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "query/query_spec.h"
#include "storage/index.h"
#include "testing/generators.h"

namespace bouquet {

/// Materialized real data for one fuzz instance.
struct ExecDataset {
  Database db;
  /// Synced from the generated data (real histograms, real row counts) —
  /// NOT the instance's abstract catalog.
  Catalog catalog;
  /// Copy of the instance query with every selection constant bound.
  QuerySpec query;
  /// Selectivities actually achieved for the error selection dimensions
  /// (join dimensions report their data-driven value as 0; they need no
  /// constant binding).
  std::vector<double> achieved;
};

struct ExecDifferentialOptions {
  /// Per-table row-count cap. Nominal fuzz cardinalities (up to millions)
  /// are log-mapped into [cap/8, cap] so relative size ratios — which drive
  /// join-order and operator choice — survive the scale-down.
  int64_t max_rows_per_table = 320;
  /// Deduped ESS-corner plans to execute (all-lo, all-hi, mid, defaults).
  int max_plans = 3;
  /// Interior budget fractions swept per plan, in addition to the always-on
  /// boundary budgets (0-ish, the total C and one quantum below it). Each
  /// fraction that aborts adds two more: the oracle's charge at the abort
  /// and one quantum below it.
  int budget_sweeps = 4;
  /// Batch sizes exercised for every budget; deliberately degenerate.
  std::vector<int> batch_sizes = {1, 3, 7, 1024};
  /// Also differential-test spill-mode subtree executions for every error
  /// dimension whose predicate node exists in the plan.
  bool check_spill = true;
  /// When non-empty, the materialized tables are imported into disk-backed
  /// .btbl files under this directory and both engines execute over paged
  /// storage (pool/policy below). Every run starts from
  /// BufferManager::ResetForTest() so both engines replay against an
  /// identical cold pool, and an accounting oracle asserts that the charged
  /// page reads/hits of each run equal the buffer manager's miss/hit
  /// counters exactly (the property the I/O-charged MSO costs rest on).
  std::string paged_data_dir;
  size_t paged_pool_pages = 16;
  storage::EvictionPolicyKind paged_policy = storage::EvictionPolicyKind::k2Q;
};

/// Outcome of one differential check.
struct ExecDiffResult {
  bool ok = true;
  std::string detail;  ///< first divergence, empty when ok
  int plans_checked = 0;
  int runs_compared = 0;  ///< total (engine-pair, budget, batch-size) runs
};

/// Generates real tables for the instance's schema and binds its filters.
/// Deterministic in `instance.seed`.
ExecDataset MaterializeInstance(const FuzzInstance& instance,
                                int64_t max_rows_per_table);

/// Runs the full differential described above. Deterministic.
ExecDiffResult CheckExecDifferential(const FuzzInstance& instance,
                                     const ExecDifferentialOptions& options =
                                         ExecDifferentialOptions());

}  // namespace bouquet

#endif  // BOUQUET_TESTING_EXEC_DIFFERENTIAL_H_
