// Disk-backed storage benchmark: charged-cost effect of the buffer pool on
// re-scan-heavy bouquet workloads, eviction-policy comparison, and the
// scalar-vs-batch parity + accounting check over paged data.
//
// The dataset and the reexec and scan_mix workloads live in
// testing/storage_ladder.h, which describes them; the dataset is written
// once into --data-dir. Sections:
//
//   reexec   — charged(nocache) against charged(LRU) and charged(2Q);
//   scan_mix — charged(LRU) against charged(2Q) (2Q scan resistance);
//   parity   — the reexec ladder under both engines on the 2Q pool:
//              charged cost bit-equal, and each engine's charged page
//              reads/hits equal to the buffer manager's miss/hit counters.
//
// Charged costs are deterministic, so test_buffer gates the reexec and
// scan_mix ratios and test_exec_differential the parity; wall times are
// printed for context only.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "testing/storage_ladder.h"

namespace bouquet {
namespace {

struct Totals : LadderTotals {
  double seconds = 0.0;
};

template <typename Workload>
Totals Timed(LadderSession* s, ExecEngine engine, Workload workload) {
  const auto t0 = std::chrono::steady_clock::now();
  Totals t{workload(s, engine)};
  t.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return t;
}

LadderSession Open(const std::string& data_dir,
                   storage::EvictionPolicyKind policy) {
  LadderSession s;
  const Status opened = OpenLadderSession(data_dir, policy, &s);
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.ToString().c_str());
    std::exit(1);
  }
  return s;
}

struct BenchReport {
  // reexec, per policy.
  Totals re_none, re_lru, re_2q;
  double ratio_lru = 0.0;  ///< charged(nocache) / charged(LRU)
  double ratio_2q = 0.0;   ///< charged(nocache) / charged(2Q)
  // scan_mix.
  Totals mix_lru, mix_2q;
  double lru_over_2q = 0.0;
  // parity (2Q pool, reexec ladder).
  bool charged_bit_equal = false;
  bool rows_equal = false;
  bool accounting_exact = false;
  // dataset shape.
  uint32_t dataset_pages = 0;
};

BenchReport RunAll(const std::string& data_dir) {
  BenchReport r;
  {
    LadderSession none = Open(data_dir, storage::EvictionPolicyKind::kNone);
    r.dataset_pages = none.fact_pages + none.dim_pages;
    r.re_none = Timed(&none, ExecEngine::kScalar, RunReexecLadder);
  }
  LadderSession lru = Open(data_dir, storage::EvictionPolicyKind::kLru);
  r.re_lru = Timed(&lru, ExecEngine::kScalar, RunReexecLadder);
  r.mix_lru = Timed(&lru, ExecEngine::kScalar, RunScanMix);
  LadderSession twoq = Open(data_dir, storage::EvictionPolicyKind::k2Q);
  r.re_2q = Timed(&twoq, ExecEngine::kScalar, RunReexecLadder);
  r.mix_2q = Timed(&twoq, ExecEngine::kScalar, RunScanMix);
  r.ratio_lru = r.re_none.charged / r.re_lru.charged;
  r.ratio_2q = r.re_none.charged / r.re_2q.charged;
  r.lru_over_2q = r.mix_lru.charged / r.mix_2q.charged;

  // Parity + accounting: the same ladder, scalar vs batch, each from a cold
  // 2Q pool. `charged` equality is bit-exact (==, not a tolerance).
  const LadderTotals scalar = RunReexecLadder(&twoq, ExecEngine::kScalar);
  const storage::BufferStats ss = twoq.sm->buffer()->stats();
  const bool scalar_exact =
      ss.misses == static_cast<uint64_t>(scalar.page_reads) &&
      ss.hits == static_cast<uint64_t>(scalar.page_hits);
  const LadderTotals batch = RunReexecLadder(&twoq, ExecEngine::kBatch);
  const storage::BufferStats bs = twoq.sm->buffer()->stats();
  const bool batch_exact =
      bs.misses == static_cast<uint64_t>(batch.page_reads) &&
      bs.hits == static_cast<uint64_t>(batch.page_hits);
  r.charged_bit_equal = scalar.charged == batch.charged;
  r.rows_equal = scalar.rows == batch.rows;
  r.accounting_exact = scalar_exact && batch_exact;
  return r;
}

void PrintTotals(const char* name, const Totals& t) {
  std::printf("  %-8s charged %10.1f   page reads %6lld   hits %6lld   "
              "%7.2f ms\n",
              name, t.charged, static_cast<long long>(t.page_reads),
              static_cast<long long>(t.page_hits), t.seconds * 1e3);
}

void PrintReport(const BenchReport& r) {
  std::printf("Disk-backed storage: buffer pool effect on charged cost\n");
  std::printf("(pool %zu pages; dataset %u pages = %.1fx pool)\n\n",
              kLadderPoolPages, r.dataset_pages,
              static_cast<double>(r.dataset_pages) / kLadderPoolPages);
  std::printf("reexec ladder (2 passes x 8 widening index ranges):\n");
  PrintTotals("nocache", r.re_none);
  PrintTotals("lru", r.re_lru);
  PrintTotals("2q", r.re_2q);
  std::printf("  charged ratio nocache/lru %.2fx, nocache/2q %.2fx\n\n",
              r.ratio_lru, r.ratio_2q);
  std::printf("scan_mix (hot 12-page range between full dim scans):\n");
  PrintTotals("lru", r.mix_lru);
  PrintTotals("2q", r.mix_2q);
  std::printf("  charged ratio lru/2q %.2fx (2Q scan resistance)\n\n",
              r.lru_over_2q);
  std::printf("parity (reexec, scalar vs batch on the 2Q pool):\n");
  std::printf("  charged %s, rows %s, accounting %s\n",
              r.charged_bit_equal ? "bit-equal" : "DIVERGED",
              r.rows_equal ? "equal" : "DIVERGED",
              r.accounting_exact ? "exact" : "DRIFTED");
}

int Run(const std::string& data_dir) {
  const Status written =
      storage::WriteOnDiskDataset(data_dir, LadderDatasetSpec());
  if (!written.ok()) {
    std::fprintf(stderr, "dataset: %s\n", written.ToString().c_str());
    return 1;
  }
  PrintReport(RunAll(data_dir));
  return 0;
}

}  // namespace
}  // namespace bouquet

int main(int argc, char** argv) {
  std::string data_dir = "/tmp/bouquet_bench_storage";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    }
  }
  return bouquet::Run(data_dir);
}
