// Tests for the paging layer: slotted pages, the deterministic table
// writer, the buffer manager's eviction policies (LRU, 2Q with ghost
// queue, kNone baseline), pin refcounting and eviction starvation, the
// spill writer's temp-segment lifecycle, and the pool's charged-cost effect
// on bench_storage's workloads.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/dataset.h"
#include "storage/index.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/paged_table.h"
#include "storage/table.h"
#include "testing/storage_ladder.h"

namespace bouquet {
namespace storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

DataTable ThreeColTable(int64_t rows) {
  DataTable t("t", {"a", "b", "c"});
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendRow({i, i * 7 % 100, -i});
  }
  return t;
}

// ---------------------------------------------------------------------------
// Slotted pages
// ---------------------------------------------------------------------------

TEST(SlottedPageTest, InsertAndReadBack) {
  std::vector<uint8_t> frame(kPageSize);
  SlottedPage page(frame.data());
  page.Init(7);
  EXPECT_TRUE(page.valid());
  EXPECT_EQ(page.header()->page_no, 7u);

  const uint8_t rec1[] = {1, 2, 3, 4};
  const uint8_t rec2[] = {9, 8};
  EXPECT_EQ(page.Insert(rec1, sizeof(rec1)), 0);
  EXPECT_EQ(page.Insert(rec2, sizeof(rec2)), 1);
  EXPECT_EQ(page.num_records(), 2);

  size_t len = 0;
  const uint8_t* r = page.Record(0, &len);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(len, sizeof(rec1));
  EXPECT_EQ(std::memcmp(r, rec1, len), 0);
  r = page.Record(1, &len);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(len, sizeof(rec2));
  EXPECT_EQ(page.Record(2, &len), nullptr);
  EXPECT_EQ(page.Record(-1, &len), nullptr);
}

TEST(SlottedPageTest, FillsToCapacityThenRejects) {
  std::vector<uint8_t> frame(kPageSize);
  SlottedPage page(frame.data());
  page.Init(0);
  const size_t rec_bytes = 24;  // 3 columns * 8 bytes
  const int cap = SlottedPage::Capacity(rec_bytes);
  std::vector<uint8_t> rec(rec_bytes, 0xAB);
  for (int i = 0; i < cap; ++i) {
    EXPECT_EQ(page.Insert(rec.data(), rec.size()), i);
  }
  EXPECT_FALSE(page.Fits(rec.size()));
  EXPECT_EQ(page.Insert(rec.data(), rec.size()), -1);
  EXPECT_EQ(page.num_records(), cap);
}

// ---------------------------------------------------------------------------
// Deterministic table writer + paged reads
// ---------------------------------------------------------------------------

TEST(TableWriterTest, DeterministicBytes) {
  const DataTable t = ThreeColTable(1000);
  const std::string p1 = TempPath("det_a.btbl");
  const std::string p2 = TempPath("det_b.btbl");
  ASSERT_TRUE(WriteTableFile(p1, t).ok());
  ASSERT_TRUE(WriteTableFile(p2, t).ok());
  const std::string b1 = ReadAll(p1);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(b1, ReadAll(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(PagedTableTest, ValuesMatchSourceTable) {
  const DataTable t = ThreeColTable(997);  // not a multiple of rows/page
  const std::string dir = TempPath("paged_vals");
  StorageManager sm({dir, /*pool_pages=*/8, EvictionPolicyKind::kLru});
  auto imported = sm.ImportTable(t);
  ASSERT_TRUE(imported.ok()) << imported.status().message();
  PagedTable* pt = imported.value();
  ASSERT_EQ(pt->num_rows(), t.num_rows());
  ASSERT_EQ(pt->num_columns(), t.num_columns());
  EXPECT_EQ(pt->ColumnIndex("b"), 1);
  for (int64_t r = 0; r < t.num_rows(); r += 13) {
    PageGuard g = pt->PinRowPage(r);
    ASSERT_TRUE(g.valid());
    for (int c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(pt->ValueIn(g, pt->SlotOfRow(r), c), t.value(c, r))
          << "row " << r << " col " << c;
    }
  }
  // Column streaming (index/catalog builds) returns the full column.
  EXPECT_EQ(pt->ReadColumn(2), t.column(2));
}

TEST(PagedTableTest, DecodePageIsColumnMajor) {
  const DataTable t = ThreeColTable(500);
  const std::string dir = TempPath("paged_decode");
  StorageManager sm({dir, 8, EvictionPolicyKind::kLru});
  auto imported = sm.ImportTable(t);
  ASSERT_TRUE(imported.ok());
  PagedTable* pt = imported.value();
  const int rpp = pt->rows_per_page();
  std::vector<int64_t> scratch(
      static_cast<size_t>(pt->num_columns()) * rpp);
  PageGuard g = pt->PinRowPage(0);
  const int n = pt->DecodePage(g, scratch.data());
  ASSERT_EQ(n, rpp);  // 500 rows > one page's worth for 3 columns
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < pt->num_columns(); ++c) {
      EXPECT_EQ(scratch[static_cast<size_t>(c) * rpp + i], t.value(c, i));
    }
  }
}

// ---------------------------------------------------------------------------
// Eviction policies (accounting layer: Access simulation)
// ---------------------------------------------------------------------------

PageId P(uint32_t page) { return PageId{1, page}; }

TEST(BufferPolicyTest, NoneIsAlwaysMiss) {
  BufferManager bm(4, EvictionPolicyKind::kNone);
  EXPECT_FALSE(bm.Access(P(1)));
  EXPECT_FALSE(bm.Access(P(1)));
  EXPECT_FALSE(bm.Access(P(1)));
  const BufferStats s = bm.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 3u);
}

TEST(BufferPolicyTest, LruEvictsLeastRecentlyUsed) {
  BufferManager bm(2, EvictionPolicyKind::kLru);
  EXPECT_FALSE(bm.Access(P(1)));  // miss: {1}
  EXPECT_FALSE(bm.Access(P(2)));  // miss: {2,1}
  EXPECT_TRUE(bm.Access(P(1)));   // hit, 1 becomes MRU: {1,2}
  EXPECT_FALSE(bm.Access(P(3)));  // miss, evicts 2: {3,1}
  EXPECT_TRUE(bm.Access(P(1)));   // hit
  EXPECT_FALSE(bm.Access(P(2)));  // miss: 2 was the victim
  const BufferStats s = bm.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);  // 2 evicted twice (re-admitted in between)
}

TEST(BufferPolicyTest, TwoQGhostPromotesToHotQueue) {
  // pool=4 -> Kin = 1, Kout = 2. A page must fall off A1in's FIFO tail
  // into the ghost queue and be re-accessed to earn a slot in Am.
  BufferManager bm(4, EvictionPolicyKind::k2Q);
  EXPECT_FALSE(bm.Access(P(1)));  // miss -> A1in {1}
  EXPECT_TRUE(bm.Access(P(1)));   // A1in hit: stays put, no promotion
  // 2..5 overflow the pool: the FIFO tail (1) is demoted to A1out.
  EXPECT_FALSE(bm.Access(P(2)));
  EXPECT_FALSE(bm.Access(P(3)));
  EXPECT_FALSE(bm.Access(P(4)));
  EXPECT_FALSE(bm.Access(P(5)));
  BufferStats s = bm.stats();
  EXPECT_EQ(s.ghost_hits, 0u);
  EXPECT_EQ(s.evictions, 1u);  // exactly the demoted tail
  // Touching the ghost is a miss but promotes straight to Am.
  EXPECT_FALSE(bm.Access(P(1)));
  s = bm.stats();
  EXPECT_EQ(s.ghost_hits, 1u);
  // Now 1 is hot: repeated touches are hits even as A1in churns.
  EXPECT_TRUE(bm.Access(P(1)));
  EXPECT_FALSE(bm.Access(P(6)));
  EXPECT_FALSE(bm.Access(P(7)));
  EXPECT_TRUE(bm.Access(P(1)));
}

TEST(BufferPolicyTest, TwoQScanResistance) {
  // A long one-shot scan must not displace the hot set: scan pages enter
  // through the small A1in and leave without ever touching Am.
  BufferManager bm(8, EvictionPolicyKind::k2Q);  // Kin=2, Kout=4
  // Establish a hot page via ghost promotion.
  bm.Access(P(100));
  for (uint32_t p = 1; p <= 8; ++p) bm.Access(P(p));  // push 100 to ghost
  bm.Access(P(100));                                  // ghost hit -> Am
  ASSERT_EQ(bm.stats().ghost_hits, 1u);
  ASSERT_TRUE(bm.Access(P(100)));
  // 50-page cold scan.
  for (uint32_t p = 200; p < 250; ++p) EXPECT_FALSE(bm.Access(P(p)));
  // The hot page survived the scan.
  EXPECT_TRUE(bm.Access(P(100)));
}

TEST(BufferPolicyTest, ResetForTestClearsPolicyAndStats) {
  BufferManager bm(2, EvictionPolicyKind::kLru);
  bm.Access(P(1));
  bm.Access(P(1));
  bm.ResetForTest();
  const BufferStats s = bm.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_FALSE(bm.Access(P(1)));  // cold again
}

// ---------------------------------------------------------------------------
// Physical layer: pins, zombies, starvation, writeback
// ---------------------------------------------------------------------------

class PinnedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("pin_test.bpf");
    auto created = PageFile::Create(path_);
    ASSERT_TRUE(created.ok());
    file_ = std::move(created.value());
    for (int i = 0; i < 8; ++i) {
      auto page = file_->AllocatePage();
      ASSERT_TRUE(page.ok());
    }
  }
  void TearDown() override {
    file_.reset();
    std::remove(path_.c_str());
  }
  std::string path_;
  std::unique_ptr<PageFile> file_;
};

TEST_F(PinnedFixture, PinRefcountsAndReclaim) {
  BufferManager bm(2, EvictionPolicyKind::kLru);
  const uint16_t fid = bm.RegisterFile(file_.get());
  const PageId id{fid, 0};
  {
    PageGuard g1 = bm.Pin(id);
    ASSERT_TRUE(g1.valid());
    EXPECT_EQ(bm.stats().physical_reads, 1u);
    {
      PageGuard g2 = bm.Pin(id);  // second pin: same frame, no new read
      ASSERT_TRUE(g2.valid());
      EXPECT_EQ(g2.data(), g1.data());
      EXPECT_EQ(bm.stats().physical_reads, 1u);
      EXPECT_EQ(bm.stats().pinned_frames, 1u);  // one frame, two pins
    }
    EXPECT_EQ(bm.stats().pinned_frames, 1u);  // still pinned by g1
  }
  // Never Access()ed -> not resident -> reclaimed at last unpin.
  EXPECT_EQ(bm.stats().pinned_frames, 0u);
  EXPECT_EQ(bm.physical_frames(), 0u);
  EXPECT_EQ(bm.stats().pinned_peak, 1u);
}

TEST_F(PinnedFixture, AccessedPageStaysResidentAfterUnpin) {
  BufferManager bm(4, EvictionPolicyKind::kLru);
  const uint16_t fid = bm.RegisterFile(file_.get());
  const PageId id{fid, 0};
  bm.Access(id);  // logically admitted
  { PageGuard g = bm.Pin(id); ASSERT_TRUE(g.valid()); }
  EXPECT_EQ(bm.physical_frames(), 1u);  // resident survives the unpin
  { PageGuard g = bm.Pin(id); ASSERT_TRUE(g.valid()); }
  EXPECT_EQ(bm.stats().physical_reads, 1u);  // second pin was frame reuse
}

TEST_F(PinnedFixture, AllPinnedStarvationOvershootsPool) {
  // The pool holds 2 pages but 6 are pinned at once: eviction is starved,
  // Pin never fails, and the overshoot is observable via physical_frames.
  BufferManager bm(2, EvictionPolicyKind::kLru);
  const uint16_t fid = bm.RegisterFile(file_.get());
  std::vector<PageGuard> guards;
  for (uint32_t p = 0; p < 6; ++p) {
    bm.Access(PageId{fid, p});  // policy admits + evicts per its budget...
    guards.push_back(bm.Pin(PageId{fid, p}));
    ASSERT_TRUE(guards.back().valid());
  }
  EXPECT_GT(bm.physical_frames(), bm.pool_pages());
  EXPECT_EQ(bm.physical_frames(), 6u);
  EXPECT_EQ(bm.stats().pinned_peak, 6u);
  // ...so most frames are zombies (evicted-but-pinned); dropping the pins
  // reclaims them down to at most the resident set.
  guards.clear();
  EXPECT_LE(bm.physical_frames(), bm.pool_pages());
  EXPECT_EQ(bm.stats().pinned_frames, 0u);
}

TEST_F(PinnedFixture, DirtyZombieWritesBackAtLastUnpin) {
  BufferManager bm(1, EvictionPolicyKind::kLru);
  const uint16_t fid = bm.RegisterFile(file_.get());
  const PageId a{fid, 0};
  bm.Access(a);
  PageGuard g = bm.Pin(a);
  ASSERT_TRUE(g.valid());
  g.mutable_data()[100] = 0x5A;
  // Evict `a` while pinned (pool of 1, new page admitted): zombie.
  bm.Access(PageId{fid, 1});
  EXPECT_EQ(bm.stats().evictions, 1u);
  EXPECT_EQ(bm.stats().writebacks, 0u);  // deferred: still pinned
  g.Release();
  EXPECT_EQ(bm.stats().writebacks, 1u);
  // The bytes are durable: a fresh fault sees them.
  PageGuard g2 = bm.Pin(a);
  ASSERT_TRUE(g2.valid());
  EXPECT_EQ(g2.data()[100], 0x5A);
}

TEST_F(PinnedFixture, FailedWritebackCountsWriteErrors) {
  // Eviction has no caller to return a Status to, so a writeback whose
  // pwrite fails must surface through stats().write_errors (and the
  // buffer_write_errors_total counter) instead of vanishing. Force the
  // failure by closing the file's fd under the manager: the dirty page's
  // writeback hits EBADF.
  BufferManager bm(1, EvictionPolicyKind::kLru);
  obs::MetricsRegistry metrics;
  bm.SetObservability(&metrics, nullptr);
  const uint16_t fid = bm.RegisterFile(file_.get());
  const PageId a{fid, 0};
  bm.Access(a);
  {
    PageGuard g = bm.Pin(a);
    ASSERT_TRUE(g.valid());
    g.mutable_data()[7] = 0x42;
  }
  ASSERT_TRUE(file_->CloseAndRemove().ok());  // fd now invalid
  // Evict the dirty resident frame: writeback runs and fails.
  bm.Access(PageId{fid, 1});
  EXPECT_EQ(bm.stats().evictions, 1u);
  EXPECT_EQ(bm.stats().writebacks, 1u);  // attempted...
  EXPECT_EQ(bm.stats().write_errors, 1u);  // ...and recorded as lost
  EXPECT_EQ(
      metrics.GetCounter("buffer_write_errors_total", "")->value(), 1u);
}

// ---------------------------------------------------------------------------
// Spill writer
// ---------------------------------------------------------------------------

TEST(SpillWriterTest, WritesPagesAndRemovesSegmentOnDeath) {
  const std::string dir = TempPath("spill_dir");
  StorageManager sm({dir, 4, EvictionPolicyKind::kLru});
  std::string spill_path;
  {
    SpillWriter w(&sm, 3);
    ASSERT_TRUE(w.ok());
    for (int64_t i = 0; i < 3000; ++i) w.Append({i, i + 1, i + 2});
    EXPECT_EQ(w.rows_written(), 3000);
    EXPECT_GT(w.pages_written(), 1u);
    EXPECT_GT(sm.buffer()->stats().physical_writes, 0u);
  }
  // Writer death dropped the segment (and its frames).
  EXPECT_EQ(sm.buffer()->physical_frames(), 0u);
}

TEST(SpillWriterTest, SpillNeverTouchesAccountingStats) {
  const std::string dir = TempPath("spill_acct");
  StorageManager sm({dir, 4, EvictionPolicyKind::k2Q});
  const uint64_t misses_before = sm.buffer()->stats().misses;
  {
    SpillWriter w(&sm, 2);
    ASSERT_TRUE(w.ok());
    for (int64_t i = 0; i < 5000; ++i) w.Append({i, -i});
  }
  const BufferStats s = sm.buffer()->stats();
  EXPECT_EQ(s.misses, misses_before);  // physical only: no Access() calls
  EXPECT_EQ(s.hits, 0u);
}

// ---------------------------------------------------------------------------
// Dataset writer
// ---------------------------------------------------------------------------

TEST(DatasetTest, WriteOnDiskDatasetIsDeterministic) {
  DatasetSpec spec;
  spec.seed = 77;
  spec.num_tables = 2;
  spec.rows_per_table = 2000;
  const std::string d1 = TempPath("ds_a");
  const std::string d2 = TempPath("ds_b");
  ASSERT_TRUE(WriteOnDiskDataset(d1, spec).ok());
  ASSERT_TRUE(WriteOnDiskDataset(d2, spec).ok());
  for (const std::string& name : DatasetTableNames(spec)) {
    const std::string b = ReadAll(d1 + "/" + name + ".btbl");
    ASSERT_FALSE(b.empty()) << name;
    EXPECT_EQ(b, ReadAll(d2 + "/" + name + ".btbl")) << name;
  }
}

TEST(DatasetTest, OpenedDatasetMatchesGeneratedTables) {
  DatasetSpec spec;
  spec.seed = 5;
  spec.num_tables = 3;
  spec.rows_per_table = 1500;
  const std::string dir = TempPath("ds_open");
  ASSERT_TRUE(WriteOnDiskDataset(dir, spec).ok());
  StorageManager sm({dir, 16, EvictionPolicyKind::k2Q});
  const std::vector<std::string> names = DatasetTableNames(spec);
  for (int i = 0; i < spec.num_tables; ++i) {
    auto opened = sm.OpenTable(names[i]);
    ASSERT_TRUE(opened.ok()) << names[i];
    const DataTable expect = GenerateDatasetTable(spec, i);
    PagedTable* pt = opened.value();
    ASSERT_EQ(pt->num_rows(), expect.num_rows());
    for (int c = 0; c < expect.num_columns(); ++c) {
      EXPECT_EQ(pt->ReadColumn(c), expect.column(c)) << names[i] << " col "
                                                     << c;
    }
  }
  // The fact table carries fks referencing each dimension's pk domain.
  PagedTable* fact = sm.FindTable("fact");
  ASSERT_NE(fact, nullptr);
  EXPECT_EQ(fact->ColumnIndex("fk1"), 1);
  EXPECT_EQ(fact->ColumnIndex("fk2"), 2);
}

// Database::AttachStorage registers schema shells and serves indexes built
// by streaming paged columns.
TEST(DatasetTest, AttachStorageServesIndexesOverPagedTables) {
  DatasetSpec spec;
  spec.seed = 11;
  spec.num_tables = 2;
  spec.rows_per_table = 800;
  const std::string dir = TempPath("ds_attach");
  ASSERT_TRUE(WriteOnDiskDataset(dir, spec).ok());
  StorageManager sm({dir, 16, EvictionPolicyKind::k2Q});
  for (const std::string& n : DatasetTableNames(spec)) {
    ASSERT_TRUE(sm.OpenTable(n).ok());
  }
  Database db;
  db.AttachStorage(&sm);
  ASSERT_NE(db.paged("fact"), nullptr);
  EXPECT_EQ(db.paged("nope"), nullptr);
  EXPECT_EQ(db.table("fact").num_rows(), 0);  // shell: schema only

  const DataTable expect = GenerateDatasetTable(spec, 0);
  const int c0 = expect.ColumnIndex("c0");
  const SortedIndex& sorted = db.sorted_index("fact", c0);
  EXPECT_EQ(sorted.CountRange(INT64_MIN, INT64_MAX), spec.rows_per_table);
  const HashIndex& hash = db.hash_index("fact", 0);
  EXPECT_EQ(hash.Lookup(1).size(), 1u);  // pk is unique

  Catalog cat;
  db.SyncCatalog(&cat);
  ASSERT_TRUE(cat.HasTable("fact"));
  EXPECT_DOUBLE_EQ(cat.GetTable("fact").stats.row_count,
                   static_cast<double>(spec.rows_per_table));
}

// bench_storage's workloads, charged by the executor: the policy tests
// above check what each pool keeps, and this checks what that saves in
// charged cost. Dataset and ladder are seeded, so the figures are exact.
TEST(BufferLadderTest, PoolCutsChargedCostOfReexecLadderAndScanMix) {
  const std::string dir = TempPath("ladder");
  ASSERT_TRUE(WriteOnDiskDataset(dir, LadderDatasetSpec()).ok());
  LadderSession none, lru, twoq;
  ASSERT_TRUE(OpenLadderSession(dir, EvictionPolicyKind::kNone, &none).ok());
  ASSERT_TRUE(OpenLadderSession(dir, EvictionPolicyKind::kLru, &lru).ok());
  ASSERT_TRUE(OpenLadderSession(dir, EvictionPolicyKind::k2Q, &twoq).ok());
  // The workloads must not fit the pool, or no policy has anything to do.
  EXPECT_GE(none.fact_pages + none.dim_pages, 4 * kLadderPoolPages);

  const LadderTotals re_none = RunReexecLadder(&none, ExecEngine::kScalar);
  const LadderTotals re_lru = RunReexecLadder(&lru, ExecEngine::kScalar);
  const LadderTotals re_2q = RunReexecLadder(&twoq, ExecEngine::kScalar);
  EXPECT_EQ(re_2q.rows, 3464);
  EXPECT_EQ(re_lru.rows, re_2q.rows);
  EXPECT_EQ(re_none.rows, re_2q.rows);
  // Re-execution re-reads become buffer hits (23.5x on this dataset).
  EXPECT_GE(re_none.charged / re_lru.charged, 3.0);
  EXPECT_GE(re_none.charged / re_2q.charged, 3.0);

  // 2Q keeps the hot range through the scans that flush LRU (1.22x).
  const LadderTotals mix_lru = RunScanMix(&lru, ExecEngine::kScalar);
  const LadderTotals mix_2q = RunScanMix(&twoq, ExecEngine::kScalar);
  EXPECT_GE(mix_lru.charged / mix_2q.charged, 1.05);
}

}  // namespace
}  // namespace storage
}  // namespace bouquet
