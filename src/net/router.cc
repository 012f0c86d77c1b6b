#include "net/router.h"

#include <algorithm>
#include <utility>

namespace bouquet {
namespace net {

namespace {

double NowSeconds(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration<double>(tp.time_since_epoch()).count();
}

}  // namespace

RequestRouter::RequestRouter(RouterOptions options, BatchExecutor executor,
                             ShedHandler shed, obs::MetricsRegistry* metrics)
    : options_(options),
      executor_(std::move(executor)),
      shed_(std::move(shed)) {
  if (metrics != nullptr) {
    ins_.requests = metrics->GetCounter(
        "net_requests_total", "QUERY frames reaching admission control");
    ins_.throttled = metrics->GetCounter(
        "net_throttled_total",
        "Requests rejected by the per-tenant token bucket");
    ins_.shed = metrics->GetCounter(
        "net_shed_total",
        "Requests shed to the MSO-safe plan (queue bound exceeded)");
    ins_.batches = metrics->GetCounter("net_batches_total",
                                       "Same-template batches dispatched");
    ins_.batched_requests = metrics->GetCounter(
        "net_batched_requests_total", "Requests dispatched inside batches");
    ins_.queue_depth = metrics->GetGauge(
        "net_queue_depth", "Admitted requests not yet dispatched");
    ins_.queue_depth_peak = metrics->GetGauge(
        "net_queue_depth_peak", "High-water mark of net_queue_depth");
    ins_.inflight_batches = metrics->GetGauge(
        "net_inflight_batches", "Batches currently executing on the pool");
    ins_.batch_size =
        metrics->GetHistogram("net_batch_size", "Requests per flushed batch",
                              obs::BatchSizeBuckets());
    ins_.queue_wait = metrics->GetHistogram(
        "net_queue_wait_seconds",
        "Arrival to batch-flush wait (admitted requests)",
        obs::NetLatencyBuckets());
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

RequestRouter::~RequestRouter() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  dispatcher_.join();

  // Wait out in-flight batches (their executors hold `this` via
  // OnBatchDone), then fail every stranded queued request so no respond
  // closure is silently dropped.
  std::vector<RoutedRequest> stranded;
  {
    MutexLock lock(&mu_);
    while (inflight_batches_ > 0) drain_cv_.Wait(&mu_);
    for (auto& [id, tenant] : tenants_) {
      for (auto& req : tenant.queue) stranded.push_back(std::move(req));
      tenant.queue.clear();
    }
    for (auto& [name, batch] : batches_) {
      for (auto& req : batch.requests) stranded.push_back(std::move(req));
    }
    batches_.clear();
    queued_ = 0;
  }
  for (auto& req : stranded) {
    req.fail(WireError::kShuttingDown, "server stopped");
  }
}

RequestRouter::Tenant& RequestRouter::TenantLocked(uint32_t tenant_id) {
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(tenant_id,
                      Tenant{TokenBucket(options_.tenant_rate,
                                         options_.tenant_burst),
                             0.0,
                             {}})
             .first;
  }
  return it->second;
}

void RequestRouter::UpdateQueueGaugeLocked() {
  stats_.queue_depth = queued_;
  if (queued_ > stats_.peak_queue_depth) stats_.peak_queue_depth = queued_;
  if (ins_.queue_depth != nullptr) {
    ins_.queue_depth->Set(static_cast<double>(queued_));
    ins_.queue_depth_peak->Set(static_cast<double>(stats_.peak_queue_depth));
  }
}

void RequestRouter::Submit(RoutedRequest request) {
  enum class Action { kQueued, kThrottled, kShed, kDrainReject };
  Action action;
  {
    MutexLock lock(&mu_);
    ++stats_.submitted;
    if (ins_.requests != nullptr) ins_.requests->Inc();
    if (draining_ || stop_) {
      action = Action::kDrainReject;
      ++stats_.rejected_draining;
    } else {
      Tenant& tenant = TenantLocked(request.query.tenant_id);
      const double now_s = NowSeconds(std::chrono::steady_clock::now());
      if (!tenant.bucket.TryTake(now_s)) {
        action = Action::kThrottled;
        ++stats_.throttled;
        if (ins_.throttled != nullptr) ins_.throttled->Inc();
      } else if (queued_ >= options_.max_queue_depth) {
        action = Action::kShed;
        ++stats_.shed;
        if (ins_.shed != nullptr) ins_.shed->Inc();
      } else {
        action = Action::kQueued;
        ++stats_.admitted;
        // A tenant returning from idle starts at the current virtual time:
        // no credit is banked while unbacklogged (start-time fair queuing).
        if (tenant.queue.empty()) {
          tenant.vtime = std::max(tenant.vtime, global_vtime_);
        }
        tenant.queue.push_back(std::move(request));
        ++queued_;
        UpdateQueueGaugeLocked();
      }
    }
  }
  switch (action) {
    case Action::kQueued:
      work_cv_.NotifyOne();
      break;
    case Action::kThrottled:
      request.fail(WireError::kThrottled, "tenant over admission rate");
      request.span.Flag("throttled", true);
      break;
    case Action::kShed:
      shed_(std::move(request));
      break;
    case Action::kDrainReject:
      request.fail(WireError::kShuttingDown, "server draining");
      break;
  }
}

void RequestRouter::FormBatchesLocked() {
  for (;;) {
    // Fair queuing: the backlogged tenant with the smallest virtual time
    // whose head request can still join its template's batch.
    Tenant* best = nullptr;
    for (auto& [id, tenant] : tenants_) {
      if (tenant.queue.empty()) continue;
      const std::string& tmpl = tenant.queue.front().query.template_name;
      auto bit = batches_.find(tmpl);
      if (bit != batches_.end() &&
          static_cast<int>(bit->second.requests.size()) >=
              options_.max_batch) {
        continue;  // full batch waiting on the inflight cap; stay queued
      }
      if (best == nullptr || tenant.vtime < best->vtime) best = &tenant;
    }
    if (best == nullptr) return;

    RoutedRequest req = std::move(best->queue.front());
    best->queue.pop_front();
    global_vtime_ = best->vtime;
    best->vtime += 1.0;

    Batch& batch = batches_[req.query.template_name];
    if (batch.requests.empty()) {
      batch.deadline =
          req.arrival + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                options_.batch_window_ms));
    }
    batch.requests.push_back(std::move(req));
  }
}

std::vector<std::pair<std::string, RequestRouter::Batch>>
RequestRouter::TakeFlushableLocked(std::chrono::steady_clock::time_point now,
                                   bool flush_all) {
  std::vector<std::pair<std::string, Batch>> out;
  for (auto it = batches_.begin(); it != batches_.end();) {
    Batch& batch = it->second;
    const bool due =
        flush_all ||
        static_cast<int>(batch.requests.size()) >= options_.max_batch ||
        now >= batch.deadline;
    if (!due || inflight_batches_ >= options_.max_inflight_batches) {
      ++it;
      continue;
    }
    const size_t n = batch.requests.size();
    ++inflight_batches_;
    ++stats_.batches;
    stats_.batched_requests += n;
    stats_.inflight_batches = inflight_batches_;
    queued_ -= n;
    if (ins_.batches != nullptr) {
      ins_.batches->Inc();
      ins_.batched_requests->Inc(n);
      ins_.inflight_batches->Set(inflight_batches_);
      ins_.batch_size->Observe(static_cast<double>(n));
      for (const RoutedRequest& req : batch.requests) {
        ins_.queue_wait->Observe(
            std::chrono::duration<double>(now - req.arrival).count());
      }
    }
    out.emplace_back(it->first, std::move(batch));
    it = batches_.erase(it);
  }
  UpdateQueueGaugeLocked();
  return out;
}

void RequestRouter::DispatcherLoop() {
  for (;;) {
    std::vector<std::pair<std::string, Batch>> flush;
    {
      MutexLock lock(&mu_);
      for (;;) {
        if (stop_) return;
        FormBatchesLocked();
        const auto now = std::chrono::steady_clock::now();
        flush = TakeFlushableLocked(now, draining_);
        if (!flush.empty()) break;
        if (draining_ && queued_ == 0 && inflight_batches_ == 0 &&
            batches_.empty()) {
          drain_cv_.NotifyAll();
        }
        // Nothing flushable: sleep until the nearest future batch deadline
        // (a capped-but-due batch instead rides the OnBatchDone notify).
        auto nearest = std::chrono::steady_clock::time_point::max();
        for (const auto& [name, batch] : batches_) {
          if (batch.deadline > now) {
            nearest = std::min(nearest, batch.deadline);
          }
        }
        if (nearest == std::chrono::steady_clock::time_point::max()) {
          work_cv_.Wait(&mu_);
        } else {
          work_cv_.WaitFor(&mu_, nearest - now);
        }
      }
    }
    for (auto& [name, batch] : flush) {
      executor_(name, std::move(batch.requests));
    }
  }
}

void RequestRouter::OnBatchDone() {
  // Notify while holding the mutex: the destructor's drain wait may be the
  // only thing keeping this object alive, and a post-unlock NotifyAll would
  // race with condvar destruction the moment the waiter sees
  // inflight_batches_ == 0. Signaling under the lock pins the waiter inside
  // Wait() until both broadcasts complete.
  MutexLock lock(&mu_);
  --inflight_batches_;
  stats_.inflight_batches = inflight_batches_;
  if (ins_.inflight_batches != nullptr) {
    ins_.inflight_batches->Set(inflight_batches_);
  }
  work_cv_.NotifyAll();
  drain_cv_.NotifyAll();
}

void RequestRouter::Drain() {
  {
    MutexLock lock(&mu_);
    draining_ = true;
  }
  work_cv_.NotifyAll();
  MutexLock lock(&mu_);
  while (queued_ > 0 || inflight_batches_ > 0 || !batches_.empty()) {
    drain_cv_.Wait(&mu_);
  }
}

RouterStats RequestRouter::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace net
}  // namespace bouquet
