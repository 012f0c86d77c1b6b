// BouquetService: the concurrent serving front end for plan bouquets.
//
// The paper's deployment model (Section 4.2) is form-based query templates
// whose expensive ESS exploration is amortized across many invocations.
// This layer makes that amortization operational at serving scale:
//
//   * requests run on a shared fixed ThreadPool (`Submit` is async,
//     `Run` synchronous);
//   * compiled {EssGrid, PlanDiagram, PlanBouquet, BouquetSimulator}
//     bundles live in a template-keyed sharded LRU BouquetCache;
//   * concurrent first requests for the same template are deduplicated
//     (single-flight): exactly one thread compiles, the rest wait on the
//     shared future;
//   * the compiling thread parallelizes POSP generation by partitioning
//     ESS grid rows across the same pool (nest-safe ParallelFor);
//   * cold starts can be avoided by warm-starting templates from bouquet
//     files written by bouquet/serialize.
//
// Execution is cost-model simulation by default (the paper's own metric
// substrate); when a Database is supplied, requests with bound constants
// may instead run the real-data BouquetDriver. Either way executions of
// distinct requests proceed concurrently: the CompiledBouquet bundle is
// immutable after construction and BouquetSimulator's Run* methods are
// const and thread-safe.
//
// Thread-safety: all public methods may be called from any thread. The
// catalog (and database, if any) are borrowed and must outlive the service;
// they are treated as read-only except for the Database's internal lazy
// index caches, which are mutex-protected.

#ifndef BOUQUET_SERVICE_SERVICE_H_
#define BOUQUET_SERVICE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bouquet/bouquet.h"
#include "bouquet/driver.h"
#include "bouquet/simulator.h"
#include "catalog/catalog.h"
#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_pool.h"
#include "feedback/feedback_store.h"
#include "feedback/warm_start.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/bouquet_cache.h"
#include "storage/index.h"

namespace bouquet {

struct ServiceOptions {
  int num_threads = 4;           ///< pool size (requests + POSP shards)
  size_t cache_capacity = 64;    ///< compiled templates kept resident
  int cache_shards = 8;
  /// Per-dimension ESS resolution; 0 = EssGrid defaults by dimensionality.
  int grid_resolution = 0;
  /// POSP shard-size floor handed to GeneratePosp (lower in tests).
  uint64_t min_shard_points = 256;
  CostParams cost_params = CostParams::Postgres();
  BouquetParams bouquet_params;
  SimOptions sim_options;
  /// Optional real-data backend for ExecutionMode::kRealData requests.
  Database* database = nullptr;
  /// Optional observability sinks (borrowed; must outlive the service; null
  /// = off). Requests become "service.request" span trees — compiles,
  /// driver/simulator steps, and operator spans nest underneath — and the
  /// registry gains service_* and bouquet_driver_* instruments.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional cross-query selectivity feedback store (borrowed; must
  /// outlive the service; null = feedback off). When set, every finished
  /// request records its observed selectivities + final contour
  /// ("feedback.record" span), and every execution consults the store
  /// first ("feedback.lookup"): repeat templates warm-start the contour
  /// ladder at the learned neighborhood and compile over a shrunken ESS
  /// box, per `feedback_policy`. The store may be shared across services.
  FeedbackStore* feedback = nullptr;
  WarmStartPolicy feedback_policy;
};

enum class ExecutionMode {
  kSimulate,  ///< cost-model partial executions (BouquetSimulator)
  kRealData,  ///< Volcano executor over the Database (BouquetDriver)
};

/// One query instance: the template plus its actual selectivity location.
struct ServiceRequest {
  QuerySpec query;
  /// q_a, one entry per error dimension (snapped to the nearest grid
  /// point). Required for kSimulate; ignored by kRealData, where the truth
  /// emerges from the data.
  DimVector actual_selectivities;
  ExecutionMode mode = ExecutionMode::kSimulate;
};

/// Per-request outcome + instrumentation.
struct ServiceResult {
  uint64_t template_hash = 0;
  bool cache_hit = false;        ///< bundle came straight from the cache
  bool shared_compile = false;   ///< waited on another request's compile
  bool compiled = false;         ///< this request ran the compilation
  double compile_seconds = 0.0;  ///< obtaining the bundle (compile or wait)
  double execute_seconds = 0.0;
  double latency_seconds = 0.0;
  ExecutionMode mode = ExecutionMode::kSimulate;
  /// Served by the precompiled MSO-safe plan (RunSafePlan under load shed):
  /// one bounded execution instead of the bouquet ladder.
  bool degraded = false;
  SimResult sim;        ///< kSimulate outcome
  DriverResult real;    ///< kRealData outcome
  std::shared_ptr<const CompiledBouquet> compiled_bundle;
};

/// Aggregate service counters (snapshot).
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;      ///< led to a compilation by this request
  uint64_t shared_compiles = 0;   ///< deduplicated by single-flight
  uint64_t compilations = 0;
  /// Bundles installed by WarmStart() (file loads). Disjoint from
  /// `compilations`/`cache_misses` by construction: a warm-started bundle
  /// is Put directly into the cache and never runs Compile, so
  /// compilations == cache_misses always holds and warm_starts never
  /// inflates either (regression-tested in test_service). Feedback-driven
  /// contour warm starts are the separate `feedback_warm_runs` below.
  uint64_t warm_starts = 0;
  /// POSP compilation counters, summed over this service's compilations
  /// (see PospStats): full DP invocations, points served by the recost
  /// fast path, the incremental layers' exact work (subset bounds computed
  /// by DpLowerBound, plan nodes recomputed by the fast path's recosts), DP
  /// subproblems reused from the invariant-subplan memo, and
  /// differential-audit outcomes.
  long long posp_dp_calls = 0;
  long long posp_recost_hits = 0;
  long long posp_bound_subsets = 0;
  long long posp_recost_nodes = 0;
  long long posp_memo_hits = 0;
  long long posp_audit_checks = 0;
  long long posp_audit_failures = 0;
  double compile_seconds = 0.0;   ///< sum over compilations only
  double execute_seconds = 0.0;
  double latency_seconds = 0.0;
  /// Run-time-phase aggregates summed over finished requests (both modes):
  /// plan executions issued, contours crossed without completing, spill-mode
  /// learning executions, and guarantee fallbacks (simulated runs only —
  /// the real-data driver reports fallbacks via its own metric counter).
  uint64_t plan_executions = 0;
  uint64_t contour_crossings = 0;
  uint64_t spills = 0;
  uint64_t fallbacks = 0;
  /// Serving-layer aggregates: RunBatch invocations, requests served inside
  /// them, and requests shed to the safe plan (RunSafePlan).
  uint64_t batches = 0;
  uint64_t batch_requests = 0;
  uint64_t sheds = 0;
  /// Instantaneous load, sampled at stats() time: requests currently
  /// executing (plus the lifetime high-water mark) and pool tasks queued.
  uint64_t inflight_requests = 0;
  uint64_t peak_inflight_requests = 0;
  uint64_t queue_depth = 0;
  /// Feedback-store integration counters (all zero without
  /// ServiceOptions::feedback). A "hit" is a lookup that produced a usable
  /// warm-start seed; a "warm run" actually started above contour 0.
  uint64_t feedback_lookups = 0;
  uint64_t feedback_hits = 0;
  uint64_t feedback_records = 0;
  uint64_t feedback_warm_runs = 0;
  uint64_t feedback_contours_skipped = 0;
  uint64_t feedback_box_shrinks = 0;  ///< compiles over a shrunken ESS box
  /// Warm-started cache entries (CompiledBouquet::warm_started), sampled
  /// from the BouquetCache at stats() time: live now, and evicted by LRU
  /// pressure over the cache's lifetime.
  uint64_t cache_warm_entries = 0;
  uint64_t cache_warm_evictions = 0;
  /// Buffer-pool counters, sampled at stats() time from the database's
  /// StorageManager (all zero when the database is in-memory or absent).
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_evictions = 0;
  uint64_t buffer_writebacks = 0;
  uint64_t buffer_pinned_peak = 0;

  double CacheHitRate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(cache_hits) / requests;
  }
};

class BouquetService {
 public:
  /// The catalog (and options.database) must outlive the service.
  explicit BouquetService(const Catalog& catalog, ServiceOptions options = {});

  /// Serves one request on the calling thread (compiling/waiting for the
  /// template bundle as needed).
  Result<ServiceResult> Run(const ServiceRequest& request);

  /// Queues the request on the pool; returns immediately.
  std::future<Result<ServiceResult>> Submit(ServiceRequest request);

  /// Serves a same-template batch on the calling thread: one GetOrCompile
  /// (single-flight) then one execution per request. All requests must
  /// share the template key (the serving layer's router guarantees this);
  /// results align index-for-index with `requests`. Emits a "service.batch"
  /// span under `parent` with per-request "service.request" children.
  Result<std::vector<ServiceResult>> RunBatch(
      const std::vector<ServiceRequest>& requests,
      const obs::Span* parent = nullptr);

  /// Degraded fast path for load shedding: serves the request with the
  /// template's precompiled MSO-safe plan — one bounded-cost execution, no
  /// selectivity discovery. Cache-only: fails (FailedPrecondition) when the
  /// template has not been compiled yet, so shedding never triggers a
  /// compile storm. Simulation mode only.
  Result<ServiceResult> RunSafePlan(const ServiceRequest& request,
                                    const obs::Span* parent = nullptr);

  /// Cache key of a query under this service's configuration.
  std::string KeyFor(const QuerySpec& query) const;

  /// Returns the compiled bundle for the query's template, compiling it
  /// (single-flight) on a miss. `result`, when given, receives the
  /// cache_hit/shared_compile/compiled/compile_seconds fields. When tracing
  /// is on, a leader compile emits a "service.compile" span under `parent`.
  Result<std::shared_ptr<const CompiledBouquet>> GetOrCompile(
      const QuerySpec& query, ServiceResult* result = nullptr,
      const obs::Span* parent = nullptr);

  /// Loads a bundle previously written by SaveBouquetToFile and installs it
  /// under the query's template key. The file's grid resolution must match
  /// this service's configuration (the key encodes it).
  Status WarmStart(const QuerySpec& query, const std::string& path);

  ServiceStats stats() const;
  const BouquetCache& cache() const { return cache_; }
  ThreadPool* pool() { return &pool_; }
  const ServiceOptions& options() const { return options_; }

 private:
  std::vector<int> ResolutionsFor(const QuerySpec& query) const;
  std::shared_ptr<const CompiledBouquet> Compile(const QuerySpec& query);
  uint64_t SnapToGrid(const EssGrid& grid, const DimVector& actual) const;

  Status ValidateRequest(const ServiceRequest& request) const;
  /// Consults the feedback store for a warm-start contour ("feedback.lookup"
  /// span); returns 0 (cold) without a store, a usable seed, or coverage.
  int FeedbackStartContour(const CompiledBouquet& c, uint64_t template_hash,
                           const obs::Span* parent);
  /// Records a finished request's outcome into the feedback store
  /// ("feedback.record" span); no-op without a store or on failed runs.
  void RecordFeedback(const ServiceRequest& request,
                      const CompiledBouquet& c, const ServiceResult& r,
                      const obs::Span* parent);
  /// Everything after the bundle is in hand: execution, span attributes,
  /// run-phase stat folding. Shared by Run and RunBatch.
  void ExecuteWithBundle(const ServiceRequest& request,
                         const std::shared_ptr<const CompiledBouquet>& bundle,
                         obs::Span* req_span,
                         std::chrono::steady_clock::time_point t0,
                         ServiceResult* r);

  /// RAII inflight accounting (gauge + high-water mark + queue sample).
  class InflightScope {
   public:
    explicit InflightScope(BouquetService* s);
    ~InflightScope();

   private:
    BouquetService* s_;
  };

  /// Folds one compilation's timings and POSP counters into stats_.
  void RecordCompileStatsLocked(const CompiledBouquet& c) REQUIRES(stats_mu_);

  // Pre-resolved metric instruments (null without options_.metrics).
  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* shared_compiles = nullptr;
    obs::Histogram* compile_seconds = nullptr;
    obs::Gauge* cache_hit_rate = nullptr;
    obs::Histogram* suboptimality = nullptr;
    // Run-phase aggregates covering both execution modes (the real-data
    // driver additionally exposes its own finer-grained bouquet_driver_*).
    obs::Counter* plan_executions = nullptr;
    obs::Counter* contour_crossings = nullptr;
    obs::Counter* spills = nullptr;
    obs::Counter* fallbacks = nullptr;
    // Serving-layer instruments.
    obs::Counter* batches = nullptr;
    obs::Counter* batch_requests = nullptr;
    obs::Counter* sheds = nullptr;
    obs::Gauge* inflight = nullptr;
    obs::Gauge* queue_depth = nullptr;
    // Feedback-store integration.
    obs::Counter* feedback_lookups = nullptr;
    obs::Counter* feedback_hits = nullptr;
    obs::Counter* feedback_records = nullptr;
    obs::Counter* feedback_warm_runs = nullptr;
    obs::Counter* feedback_contours_skipped = nullptr;
    obs::Counter* feedback_box_shrinks = nullptr;
    obs::Gauge* cache_warm_entries = nullptr;
    obs::Gauge* cache_warm_evictions = nullptr;
  };

  const Catalog* catalog_;
  ServiceOptions options_;
  Instruments ins_;
  ThreadPool pool_;
  BouquetCache cache_;

  // Lock order (see DESIGN.md "Concurrency contracts"): single-flight
  // inflight_mu_ may be held while taking a cache-shard mutex (the
  // double-checked Get) or stats_mu_; never the reverse. stats_mu_ is a
  // leaf: nothing else is acquired under it.
  Mutex inflight_mu_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const CompiledBouquet>>>
      inflight_ GUARDED_BY(inflight_mu_);

  mutable Mutex stats_mu_ ACQUIRED_AFTER(inflight_mu_);
  ServiceStats stats_ GUARDED_BY(stats_mu_);

  // Instantaneous load (lock-free; snapshotted into ServiceStats).
  std::atomic<int64_t> inflight_now_{0};
  std::atomic<int64_t> inflight_peak_{0};
};

}  // namespace bouquet

#endif  // BOUQUET_SERVICE_SERVICE_H_
