// RequestRouter: the scheduling brain between the reactors and the
// BouquetService pool.
//
// Three policies compose here, all in the spirit of keeping the MSO story
// honest under load:
//
//  1. *Same-template batching.* Requests naming the same template are
//     coalesced for up to `batch_window_ms` (or `max_batch` requests) and
//     dispatched as one unit, so a burst against a cold template pays one
//     single-flight compile and the cache lookup/span overhead amortizes
//     across the burst.
//
//  2. *Admission control.* A token bucket per tenant (rate/burst) rejects
//     over-quota tenants outright (ERROR kThrottled), and fair queuing
//     (virtual-time scheduling, every tenant weighing the same) decides
//     which tenant's requests enter batches first when the system is
//     backlogged.
//
//  3. *MSO-safe load shedding.* When the admitted backlog would exceed
//     `max_queue_depth`, the request is not queued: the shed handler runs
//     it immediately through the service's precompiled safe plan (single
//     bounded-cost execution, response tagged DEGRADED). Queue depth is
//     therefore *bounded by construction*; overload degrades per-request
//     cost guarantees (from the bouquet MSO ladder to the safe plan's
//     worst-case bound) instead of degrading availability.
//
// Threading: reactor threads call Submit; a dedicated dispatcher thread
// forms and flushes batches; the executor callback runs batches on the
// service pool and calls OnBatchDone when finished. All mutable state is
// GUARDED_BY(mu_); the executor/shed callbacks are invoked *outside* the
// lock.

#ifndef BOUQUET_NET_ROUTER_H_
#define BOUQUET_NET_ROUTER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/synchronization.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bouquet {
namespace net {

/// Deterministic token bucket (time injected for testability).
class TokenBucket {
 public:
  /// rate <= 0 disables throttling (TryTake always succeeds).
  TokenBucket(double rate_per_s, double burst)
      : rate_(rate_per_s), burst_(burst), tokens_(burst) {}

  bool TryTake(double now_s) {
    if (rate_ <= 0.0) return true;
    if (last_s_ >= 0.0) {
      tokens_ = std::min(burst_, tokens_ + (now_s - last_s_) * rate_);
    }
    last_s_ = now_s;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens() const { return tokens_; }

 private:
  double rate_;
  double burst_;
  double tokens_;
  double last_s_ = -1.0;
};

struct RouterOptions {
  /// How long the first request of a batch waits for same-template company.
  double batch_window_ms = 2.0;
  /// Flush immediately at this many requests, window notwithstanding.
  int max_batch = 32;
  /// Admitted-but-undispatched ceiling; beyond it requests are shed to the
  /// safe plan.
  size_t max_queue_depth = 1024;
  /// Batches allowed in flight on the pool at once (dispatch concurrency).
  int max_inflight_batches = 8;
  /// Per-tenant token bucket; rate <= 0 disables throttling.
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
};

/// One admitted request traveling through the router. The span is the
/// net.request span opened at decode time; whoever responds ends it.
struct RoutedRequest {
  QueryMsg query;
  std::chrono::steady_clock::time_point arrival;
  obs::Span span;
  /// Deliver a RESULT to the peer. Must be callable from any thread.
  std::function<void(const ResultMsg&)> respond;
  /// Deliver an ERROR to the peer. Must be callable from any thread.
  std::function<void(WireError, const std::string&)> fail;
};

/// Counter/gauge snapshot.
struct RouterStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t throttled = 0;
  uint64_t shed = 0;
  uint64_t rejected_draining = 0;
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
  uint64_t queue_depth = 0;       ///< current
  uint64_t peak_queue_depth = 0;
  uint64_t inflight_batches = 0;  ///< current
};

class RequestRouter {
 public:
  /// Runs one same-template batch (on the caller's choice of thread; the
  /// server submits to the service pool). Must eventually respond/fail
  /// every request and call OnBatchDone exactly once.
  using BatchExecutor =
      std::function<void(const std::string& template_name,
                         std::vector<RoutedRequest> batch)>;
  /// Handles a shed request (degraded safe-plan path). Runs inline on the
  /// submitting reactor thread; must be cheap and must respond/fail.
  using ShedHandler = std::function<void(RoutedRequest request)>;

  RequestRouter(RouterOptions options, BatchExecutor executor,
                ShedHandler shed, obs::MetricsRegistry* metrics = nullptr);
  ~RequestRouter();
  RequestRouter(const RequestRouter&) = delete;
  RequestRouter& operator=(const RequestRouter&) = delete;

  /// Admission decision + enqueue. May invoke fail (throttled/draining) or
  /// the shed handler inline before returning.
  void Submit(RoutedRequest request);

  /// Called by the batch executor when its batch has fully responded.
  void OnBatchDone();

  /// Stops admitting, flushes every open batch (windows ignored), and
  /// returns once all queues are empty and in-flight batches completed.
  void Drain();

  RouterStats stats() const;

 private:
  struct Tenant {
    TokenBucket bucket;
    double vtime = 0.0;  ///< fair-queuing virtual finish time
    std::deque<RoutedRequest> queue;
  };

  struct Batch {
    std::vector<RoutedRequest> requests;
    std::chrono::steady_clock::time_point deadline;
  };

  void DispatcherLoop();
  /// Fair-queuing step: moves queued requests into per-template batches.
  void FormBatchesLocked() REQUIRES(mu_);
  /// Flushes due/full batches up to the inflight cap. Returns the flushed
  /// batches for the caller to execute outside the lock.
  std::vector<std::pair<std::string, Batch>> TakeFlushableLocked(
      std::chrono::steady_clock::time_point now, bool flush_all)
      REQUIRES(mu_);
  Tenant& TenantLocked(uint32_t tenant_id) REQUIRES(mu_);
  void UpdateQueueGaugeLocked() REQUIRES(mu_);

  const RouterOptions options_;
  const BatchExecutor executor_;
  const ShedHandler shed_;

  struct Instruments {
    obs::Counter* requests = nullptr;
    obs::Counter* throttled = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* batched_requests = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_depth_peak = nullptr;
    obs::Gauge* inflight_batches = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* queue_wait = nullptr;
  };
  Instruments ins_;

  mutable Mutex mu_;
  CondVar work_cv_;   ///< dispatcher wakeups (submit/batch-done/stop)
  CondVar drain_cv_;  ///< Drain() completion
  std::unordered_map<uint32_t, Tenant> tenants_ GUARDED_BY(mu_);
  /// Open batches keyed by template name (std::map: deterministic flush
  /// order for tests).
  std::map<std::string, Batch> batches_ GUARDED_BY(mu_);
  double global_vtime_ GUARDED_BY(mu_) = 0.0;
  size_t queued_ GUARDED_BY(mu_) = 0;  ///< tenant queues + open batches
  int inflight_batches_ GUARDED_BY(mu_) = 0;
  bool draining_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  RouterStats stats_ GUARDED_BY(mu_);

  std::thread dispatcher_;
};

}  // namespace net
}  // namespace bouquet

#endif  // BOUQUET_NET_ROUTER_H_
