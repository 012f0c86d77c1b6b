// Tests for src/feedback: the cross-query selectivity feedback store —
// aggregation, crash-safe log recovery (truncated/garbage tails), and
// concurrent access — plus the box-shrink helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bouquet/driver.h"
#include "feedback/feedback_store.h"
#include "feedback/shrunken_box.h"

namespace bouquet {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

FeedbackObservation Obs(uint64_t hash, std::vector<double> sels,
                        int final_contour) {
  FeedbackObservation o;
  o.template_hash = hash;
  o.selectivities = std::move(sels);
  o.final_contour = final_contour;
  return o;
}

TEST(FeedbackStoreTest, AggregatesSupportAndContours) {
  FeedbackStore store;
  ASSERT_TRUE(store.Record(Obs(7, {0.1, 0.5}, 2)).ok());
  ASSERT_TRUE(store.Record(Obs(7, {0.02, 0.9}, 4)).ok());
  ASSERT_TRUE(store.Record(Obs(7, {0.3, 0.7}, -1)).ok());

  TemplateFeedback fb;
  ASSERT_TRUE(store.Lookup(7, &fb));
  EXPECT_EQ(fb.observations, 3u);
  EXPECT_EQ(fb.max_final_contour, 4);
  ASSERT_EQ(fb.support.size(), 2u);
  EXPECT_DOUBLE_EQ(fb.support[0].lo, 0.02);
  EXPECT_DOUBLE_EQ(fb.support[0].hi, 0.3);
  EXPECT_DOUBLE_EQ(fb.support[1].lo, 0.5);
  EXPECT_DOUBLE_EQ(fb.support[1].hi, 0.9);

  EXPECT_FALSE(store.Lookup(8, &fb));
  const FeedbackStoreStats s = store.stats();
  EXPECT_EQ(s.records, 3u);
  EXPECT_EQ(s.templates, 1u);
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.lookup_hits, 1u);
  EXPECT_FALSE(store.file_backed());
}

TEST(FeedbackStoreTest, RejectsUnusableObservations) {
  FeedbackStore store;
  EXPECT_FALSE(store.Record(Obs(1, {}, 0)).ok());
  EXPECT_FALSE(store.Record(Obs(1, {0.5, NAN}, 0)).ok());
  EXPECT_FALSE(store.Record(Obs(1, {0.5, -0.1}, 0)).ok());
  TemplateFeedback fb;
  EXPECT_FALSE(store.Lookup(1, &fb));
}

TEST(FeedbackStoreTest, PersistsAcrossReopen) {
  const std::string path = TempPath("feedback_reopen.log");
  std::remove(path.c_str());
  {
    auto opened = FeedbackStore::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& store = *opened.value();
    EXPECT_TRUE(store.file_backed());
    ASSERT_TRUE(store.Record(Obs(1, {0.1, 0.2}, 1)).ok());
    ASSERT_TRUE(store.Record(Obs(1, {0.4, 0.05}, 3)).ok());
    ASSERT_TRUE(store.Record(Obs(2, {0.9}, 0)).ok());
  }  // destructor compacts + closes
  auto reopened = FeedbackStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& store = *reopened.value();
  TemplateFeedback fb;
  ASSERT_TRUE(store.Lookup(1, &fb));
  EXPECT_EQ(fb.observations, 2u);
  EXPECT_EQ(fb.max_final_contour, 3);
  ASSERT_EQ(fb.support.size(), 2u);
  EXPECT_DOUBLE_EQ(fb.support[0].lo, 0.1);
  EXPECT_DOUBLE_EQ(fb.support[0].hi, 0.4);
  EXPECT_DOUBLE_EQ(fb.support[1].lo, 0.05);
  EXPECT_DOUBLE_EQ(fb.support[1].hi, 0.2);
  ASSERT_TRUE(store.Lookup(2, &fb));
  EXPECT_EQ(fb.observations, 1u);
  const FeedbackStoreStats s = store.stats();
  EXPECT_EQ(s.templates, 2u);
  EXPECT_GE(s.recovered_records, 2u);
  EXPECT_EQ(s.dropped_records, 0u);
  std::remove(path.c_str());
}

TEST(FeedbackStoreTest, RecoversBeforeTruncatedTail) {
  const std::string path = TempPath("feedback_torn.log");
  std::remove(path.c_str());
  {
    auto opened = FeedbackStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened.value()->Record(Obs(1, {0.25}, 2)).ok());
  }
  {
    // Simulate a crash mid-append: a torn final line with no newline.
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "obs 000000000000002a 1 1 0x1p-";
  }
  auto reopened = FeedbackStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& store = *reopened.value();
  TemplateFeedback fb;
  ASSERT_TRUE(store.Lookup(1, &fb));
  EXPECT_EQ(fb.observations, 1u);
  EXPECT_FALSE(store.Lookup(0x2a, &fb));  // the torn record is gone
  const FeedbackStoreStats s = store.stats();
  EXPECT_GE(s.dropped_records, 1u);
  EXPECT_GE(s.compactions, 1u);  // corrupt tail purged on open

  // The compaction rewrote a clean log: a third open drops nothing.
  reopened.value().reset();
  auto clean = FeedbackStore::Open(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value()->stats().dropped_records, 0u);
  ASSERT_TRUE(clean.value()->Lookup(1, &fb));
  EXPECT_EQ(fb.observations, 1u);
  std::remove(path.c_str());
}

TEST(FeedbackStoreTest, ChecksumMismatchDropsTail) {
  const std::string path = TempPath("feedback_garbage.log");
  std::remove(path.c_str());
  {
    auto opened = FeedbackStore::Open(path);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened.value()->Record(Obs(1, {0.5}, 1)).ok());
    ASSERT_TRUE(opened.value()->Record(Obs(2, {0.125}, 0)).ok());
  }
  // Flip one byte inside the final record's checksum.
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  ASSERT_EQ(bytes.back(), '\n');
  const size_t target = bytes.size() - 2;  // last checksum hex digit
  bytes[target] = bytes[target] == '0' ? '1' : '0';
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto reopened = FeedbackStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& store = *reopened.value();
  const FeedbackStoreStats s = store.stats();
  EXPECT_GE(s.dropped_records, 1u);
  // Everything before the corrupt line survives.
  TemplateFeedback fb;
  EXPECT_TRUE(store.Lookup(1, &fb) || store.Lookup(2, &fb));
  std::remove(path.c_str());
}

TEST(FeedbackStoreTest, ConcurrentRecordLookupCompact) {
  const std::string path = TempPath("feedback_concurrent.log");
  std::remove(path.c_str());
  auto opened = FeedbackStore::Open(path);
  ASSERT_TRUE(opened.ok());
  FeedbackStore& store = *opened.value();

  constexpr int kWriters = 3;
  constexpr int kPerWriter = 64;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const uint64_t hash = static_cast<uint64_t>(i % 8);
        const double sel = 0.01 * (w + 1) + 0.001 * i;
        EXPECT_TRUE(store.Record(Obs(hash, {sel, sel / 2}, i % 4)).ok());
      }
    });
  }
  threads.emplace_back([&store] {
    TemplateFeedback fb;
    for (int i = 0; i < 200; ++i) {
      store.Lookup(static_cast<uint64_t>(i % 8), &fb);
    }
  });
  threads.emplace_back([&store] {
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(store.Compact().ok());
  });
  for (auto& t : threads) t.join();

  uint64_t total = 0;
  for (uint64_t h = 0; h < 8; ++h) {
    TemplateFeedback fb;
    ASSERT_TRUE(store.Lookup(h, &fb));
    total += fb.observations;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kWriters) * kPerWriter);
  std::remove(path.c_str());
}

class ShrunkenBoxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int d = 0; d < 2; ++d) {
      ErrorDimension dim;
      dim.lo = 1e-4;
      dim.hi = 1.0;
      query_.error_dims.push_back(dim);
    }
    fb_.observations = 5;
    fb_.support = {{0.01, 0.02}, {0.1, 0.2}};
  }
  QuerySpec query_;
  TemplateFeedback fb_;
};

TEST_F(ShrunkenBoxTest, ShrinksWithGuardBandInsideDeclaredRange) {
  ASSERT_EQ(kShrinkGuardBand, 4.0);
  EssBox box;
  ASSERT_TRUE(ShrunkenBox(query_, fb_, &box));
  ASSERT_EQ(box.lo.size(), 2u);
  EXPECT_DOUBLE_EQ(box.lo[0], 0.01 / 4.0);
  EXPECT_DOUBLE_EQ(box.hi[0], 0.02 * 4.0);
  EXPECT_DOUBLE_EQ(box.lo[1], 0.1 / 4.0);
  EXPECT_DOUBLE_EQ(box.hi[1], 0.2 * 4.0);
}

TEST_F(ShrunkenBoxTest, ClampsIntoDeclaredRange) {
  fb_.support = {{2e-4, 0.9}, {0.01, 0.02}};
  EssBox box;
  // Dim 0 clamps to the full declared range; dim 1 still shrinks.
  ASSERT_TRUE(ShrunkenBox(query_, fb_, &box));
  EXPECT_DOUBLE_EQ(box.lo[0], 1e-4);
  EXPECT_DOUBLE_EQ(box.hi[0], 1.0);
  EXPECT_DOUBLE_EQ(box.lo[1], 0.01 / 4.0);
  EXPECT_DOUBLE_EQ(box.hi[1], 0.02 * 4.0);
}

TEST_F(ShrunkenBoxTest, RefusesWhenNothingShrinks) {
  fb_.support = {{1e-4, 1.0}, {1e-4, 1.0}};
  EssBox box;
  EXPECT_FALSE(ShrunkenBox(query_, fb_, &box));
  fb_.support = {{0.01, 0.02}, {0.1, 0.2}};
  fb_.observations = kShrinkMinObservations - 1;  // too few runs
  EXPECT_FALSE(ShrunkenBox(query_, fb_, &box));
  fb_.observations = kShrinkMinObservations;
  EXPECT_TRUE(ShrunkenBox(query_, fb_, &box));
  fb_.support = {{0.01, 0.02}};  // dimensionality mismatch
  EXPECT_FALSE(ShrunkenBox(query_, fb_, &box));
}

TEST_F(ShrunkenBoxTest, ResolutionsScaleWithLogRange) {
  EssBox box;
  ASSERT_TRUE(ShrunkenBox(query_, fb_, &box));
  const std::vector<int> out = ShrunkenResolutions(query_, box, {16, 16});
  ASSERT_EQ(out.size(), 2u);
  for (int d = 0; d < 2; ++d) {
    const double ratio = std::log(box.hi[d] / box.lo[d]) / std::log(1.0 / 1e-4);
    const int expect =
        std::max(4, static_cast<int>(std::ceil(16 * std::min(1.0, ratio))));
    EXPECT_EQ(out[d], expect) << "dim " << d;
    EXPECT_LT(out[d], 16);
    EXPECT_GE(out[d], 4);
  }
}

TEST(ContourHistogramTest, BucketsNativeSentinelSeparately) {
  std::vector<DriverStep> steps(4);
  steps[0].contour = DriverStep::kNoContour;
  steps[1].contour = 0;
  steps[2].contour = 0;
  steps[3].contour = 2;
  const ContourHistogram h = HistogramSteps(steps);
  EXPECT_EQ(h.native, 1);
  ASSERT_EQ(h.by_contour.size(), 3u);
  EXPECT_EQ(h.by_contour[0], 2);
  EXPECT_EQ(h.by_contour[1], 0);
  EXPECT_EQ(h.by_contour[2], 1);
  EXPECT_EQ(HistogramSteps({}).native, 0);
  EXPECT_TRUE(HistogramSteps({}).by_contour.empty());
}

}  // namespace
}  // namespace bouquet
