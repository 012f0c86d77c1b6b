// The buffer pool's workloads over a disk-backed dataset: bench_storage
// prints their charged cost and test_buffer gates it, so the test checks
// the very runs the bench reports.
//
// The dataset is the seeded on-disk star schema from storage/dataset.h,
// about 20x the kLadderPoolPages pool, so every charged figure is a pure
// function of the seed. Two workloads:
//
//   reexec   — the bouquet re-execution pattern: an isocost-style ladder of
//              widening index-range scans over the fact table, the whole
//              ladder run twice to completion. The ladder's distinct pages
//              fit the pool, so with a cache the re-reads become priced
//              buffer hits; with EvictionPolicyKind::kNone every access
//              pays the full page cost.
//   scan_mix — the 2Q scan-resistance scenario: a hot range (promoted into
//              Am via a one-shot ghost-priming burst) is re-read between
//              full sequential scans of a dimension table larger than the
//              pool. LRU flushes the hot set on every scan; 2Q keeps it.

#ifndef BOUQUET_TESTING_STORAGE_LADDER_H_
#define BOUQUET_TESTING_STORAGE_LADDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "executor/builder.h"
#include "optimizer/cost_model.h"
#include "query/query_spec.h"
#include "storage/dataset.h"
#include "storage/index.h"
#include "storage/paged_table.h"

namespace bouquet {

inline constexpr size_t kLadderPoolPages = 32;

/// The dataset both workloads read; write it with
/// storage::WriteOnDiskDataset(data_dir, LadderDatasetSpec()).
storage::DatasetSpec LadderDatasetSpec();

/// One eviction policy's view of the dataset: its own pool, catalog and
/// pre-built pk index, so measured runs charge data-page I/O only.
struct LadderSession {
  std::unique_ptr<storage::StorageManager> sm;
  Database db;
  Catalog catalog;
  QuerySpec query;
  std::unique_ptr<CostModel> cm;
  int rpp = 1;  ///< fact rows per page
  int64_t fact_rows = 0;
  uint32_t fact_pages = 0;
  uint32_t dim_pages = 0;
};

/// Opens the dataset in `data_dir` behind a kLadderPoolPages pool that
/// evicts by `policy`.
Status OpenLadderSession(const std::string& data_dir,
                         storage::EvictionPolicyKind policy,
                         LadderSession* out);

/// Totals of one workload run; all of them are deterministic.
struct LadderTotals {
  double charged = 0.0;
  int64_t rows = 0;
  int64_t page_reads = 0;  ///< charged misses
  int64_t page_hits = 0;   ///< charged buffer hits
};

/// The reexec ladder from a cold pool: 8 widening pk ranges (4, 7, ..., 25
/// pages), the whole ladder twice, every execution to completion.
LadderTotals RunReexecLadder(LadderSession* s, ExecEngine engine);

/// scan_mix from a cold pool: a hot 12-page range re-read between 8 full
/// scans of a dimension table about 3x the pool.
LadderTotals RunScanMix(LadderSession* s, ExecEngine engine);

}  // namespace bouquet

#endif  // BOUQUET_TESTING_STORAGE_LADDER_H_
