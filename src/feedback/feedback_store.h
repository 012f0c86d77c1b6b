// Cross-query selectivity feedback store (ROADMAP item 5).
//
// Production traffic repeats: the same query template arrives many times
// with different constants, and every bouquet run *discovers* selectivity
// information (q_run outcomes, final contour reached) that the next compile
// of the same template can exploit. This store records those outcomes per
// template key — aggregated as per-ESS-dimension observed selectivity
// support [lo, hi], observation count, and the maximum final contour — and
// serves them back to the service layer, which uses them to shrink the
// compile-time ESS box to the observed support (src/feedback/shrunken_box.h).
//
// Concurrency: a sharded in-memory map (16 shards keyed by template hash)
// with one Mutex per shard, annotated per the src/common/synchronization.h
// capability contract. The on-disk log has its own mutex; Record() updates
// memory and appends to the log under *disjoint* critical sections (no lock
// nesting), so a crash between the two loses at most the last observation —
// the log is redundancy, not the source of truth for the running process.
//
// Durability: an append-only text log, one checksummed record per line
// (serialize.cc idiom: space-separated fields, '#' comments, hex floats for
// exact round-trip). Recovery is truncation-tolerant in the WAL sense: replay
// stops at the first malformed or checksum-failing line and everything after
// it is dropped (a torn tail means later bytes are suspect). Compact()
// snapshots the aggregated state to <path>.tmp and renames it over the log,
// purging any recovered-around garbage; the destructor compacts on shutdown.

#ifndef BOUQUET_FEEDBACK_FEEDBACK_STORE_H_
#define BOUQUET_FEEDBACK_FEEDBACK_STORE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "optimizer/selectivity.h"

namespace bouquet {

/// Observed selectivity support on one ESS dimension: the min/max actual
/// selectivity seen across all recorded runs of a template.
struct DimSupport {
  double lo = 0.0;
  double hi = 0.0;
};

/// Aggregated feedback for one template key.
struct TemplateFeedback {
  uint64_t observations = 0;
  /// Largest final contour any recorded run completed at; -1 when no
  /// recorded run completed on the ladder (fallback/native only).
  int max_final_contour = -1;
  /// Per-ESS-dimension observed selectivity support.
  std::vector<DimSupport> support;
};

/// One run outcome to record: the discovered (or actual) selectivities and
/// the contour the run completed at (-1 if it never completed a contour).
struct FeedbackObservation {
  uint64_t template_hash = 0;
  DimVector selectivities;
  int final_contour = -1;
};

struct FeedbackStoreStats {
  uint64_t records = 0;
  uint64_t lookups = 0;
  uint64_t lookup_hits = 0;
  uint64_t templates = 0;
  uint64_t log_appends = 0;
  uint64_t recovered_records = 0;  ///< replayed from the log at Open()
  uint64_t dropped_records = 0;    ///< torn/corrupt tail lines dropped
  uint64_t compactions = 0;
};

class FeedbackStore {
 public:
  /// Memory-only store (no durability); always usable.
  FeedbackStore();

  /// Opens (or creates) a file-backed store at `path`, replaying any
  /// existing log with truncation-tolerant recovery. If the replay dropped
  /// corrupt records the log is immediately compacted so the garbage tail
  /// cannot shadow future appends.
  static Result<std::unique_ptr<FeedbackStore>> Open(const std::string& path);

  /// Compacts (when file-backed) and closes the log.
  ~FeedbackStore();

  FeedbackStore(const FeedbackStore&) = delete;
  FeedbackStore& operator=(const FeedbackStore&) = delete;

  /// Records one run outcome: folds it into the in-memory aggregate and,
  /// when file-backed, appends a checksummed `obs` line to the log.
  /// Rejects observations with empty or non-finite selectivities.
  Status Record(const FeedbackObservation& obs);

  /// Fetches the aggregate for a template; returns false when the template
  /// has never been observed (or dimensionality is unknown).
  bool Lookup(uint64_t template_hash, TemplateFeedback* out) const;

  /// Snapshot-compacts the log: writes one aggregated `tpl` line per
  /// template to <path>.tmp and renames it over the log. No-op (OK) for
  /// memory-only stores.
  Status Compact();

  bool file_backed() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  FeedbackStoreStats stats() const;

 private:
  static constexpr int kNumShards = 16;

  struct Shard {
    mutable Mutex mu;
    std::unordered_map<uint64_t, TemplateFeedback> templates GUARDED_BY(mu);
  };

  explicit FeedbackStore(std::string path);

  Shard& ShardFor(uint64_t hash) {
    return shards_[hash % kNumShards];
  }
  const Shard& ShardFor(uint64_t hash) const {
    return shards_[hash % kNumShards];
  }

  /// Folds one observation into the in-memory aggregate.
  void Absorb(uint64_t hash, const DimVector& sels, int final_contour);

  /// Replays the log at path_; returns recovered/dropped counts via stats.
  Status Recover();

  Status AppendLine(const std::string& body) EXCLUDES(log_mu_);

  std::string path_;
  Mutex log_mu_;
  std::FILE* log_ GUARDED_BY(log_mu_) = nullptr;

  Shard shards_[kNumShards];

  std::atomic<uint64_t> records_{0};
  mutable std::atomic<uint64_t> lookups_{0};
  mutable std::atomic<uint64_t> lookup_hits_{0};
  std::atomic<uint64_t> log_appends_{0};
  std::atomic<uint64_t> recovered_records_{0};
  std::atomic<uint64_t> dropped_records_{0};
  std::atomic<uint64_t> compactions_{0};
};

}  // namespace bouquet

#endif  // BOUQUET_FEEDBACK_FEEDBACK_STORE_H_
