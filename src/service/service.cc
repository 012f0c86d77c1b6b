#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bouquet/serialize.h"
#include "common/str_util.h"
#include "ess/posp_generator.h"
#include "feedback/shrunken_box.h"
#include "service/template_key.h"

namespace bouquet {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

BouquetService::BouquetService(const Catalog& catalog, ServiceOptions options)
    : catalog_(&catalog),
      options_(options),
      pool_(options.num_threads),
      cache_(options.cache_capacity, options.cache_shards) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    ins_.requests =
        m->GetCounter("service_requests_total", "Requests served");
    ins_.cache_hits = m->GetCounter("service_cache_hits_total",
                                    "Requests served from the bouquet cache");
    ins_.cache_misses =
        m->GetCounter("service_cache_misses_total",
                      "Requests that compiled their template bundle");
    ins_.shared_compiles =
        m->GetCounter("service_shared_compiles_total",
                      "Requests deduplicated onto another compile "
                      "(single-flight followers)");
    ins_.compile_seconds =
        m->GetHistogram("service_compile_seconds",
                        "Template compile latency (leader compiles only)",
                        obs::CompileLatencyBuckets());
    ins_.cache_hit_rate = m->GetGauge(
        "service_cache_hit_rate", "cache_hits / requests, cumulative");
    ins_.suboptimality = m->GetHistogram(
        "bouquet_suboptimality",
        "Per-run SubOpt = total cost / optimal cost at q_a (simulated runs)",
        obs::SubOptimalityBuckets());
    ins_.plan_executions = m->GetCounter(
        "bouquet_executions_total",
        "Plan executions issued across all requests (both modes)");
    ins_.contour_crossings =
        m->GetCounter("bouquet_contour_crossings_total",
                      "Isocost contours crossed without completing, summed "
                      "over requests");
    ins_.spills = m->GetCounter(
        "bouquet_spills_total", "Spill-mode learning executions issued");
    ins_.fallbacks = m->GetCounter(
        "bouquet_fallbacks_total",
        "Simulated runs that violated the guarantee and fell back");
    ins_.batches = m->GetCounter("service_batches_total",
                                 "Same-template batches served by RunBatch");
    ins_.batch_requests = m->GetCounter(
        "service_batch_requests_total", "Requests served inside batches");
    ins_.sheds = m->GetCounter(
        "service_shed_total",
        "Requests served degraded by the precompiled MSO-safe plan");
    ins_.inflight = m->GetGauge("service_inflight_requests",
                                "Requests currently executing");
    ins_.queue_depth = m->GetGauge("service_queue_depth",
                                   "Tasks waiting in the service pool");
    if (options_.feedback != nullptr) {
      ins_.feedback_records = m->GetCounter(
          "feedback_records_total", "Run outcomes recorded into feedback");
      ins_.feedback_box_shrinks = m->GetCounter(
          "feedback_box_shrinks_total",
          "Template compiles over a feedback-shrunken ESS box");
    }
    ins_.cache_warm_entries = m->GetGauge(
        "service_cache_warm_entries",
        "Warm-started bundles resident in the cache (sampled)");
    ins_.cache_warm_evictions = m->GetGauge(
        "service_cache_warm_evictions",
        "Warm-started bundles evicted by LRU pressure (sampled)");
  }
  // Disk-backed databases: route buffer-pool counters and page-fault spans
  // to the same sinks as the service's own instruments.
  if (options_.database != nullptr &&
      options_.database->storage() != nullptr &&
      (options_.metrics != nullptr || options_.tracer != nullptr)) {
    options_.database->storage()->buffer()->SetObservability(
        options_.metrics, options_.tracer);
  }
}

BouquetService::InflightScope::InflightScope(BouquetService* s) : s_(s) {
  const int64_t now =
      s_->inflight_now_.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t peak = s_->inflight_peak_.load(std::memory_order_relaxed);
  while (now > peak && !s_->inflight_peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  if (s_->ins_.inflight != nullptr) {
    s_->ins_.inflight->Set(static_cast<double>(now));
    s_->ins_.queue_depth->Set(static_cast<double>(s_->pool_.queue_depth()));
  }
}

BouquetService::InflightScope::~InflightScope() {
  const int64_t now =
      s_->inflight_now_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (s_->ins_.inflight != nullptr) {
    s_->ins_.inflight->Set(static_cast<double>(now));
  }
}

std::vector<int> BouquetService::ResolutionsFor(const QuerySpec& query) const {
  const int dims = query.NumDims();
  const int res = options_.grid_resolution > 0
                      ? options_.grid_resolution
                      : EssGrid::DefaultResolutionForDims(dims);
  return std::vector<int>(dims, res);
}

std::string BouquetService::KeyFor(const QuerySpec& query) const {
  return TemplateSignature(query, ResolutionsFor(query), options_.cost_params,
                           options_.bouquet_params);
}

std::shared_ptr<const CompiledBouquet> BouquetService::Compile(
    const QuerySpec& query) {
  const auto t0 = std::chrono::steady_clock::now();
  auto c = std::make_shared<CompiledBouquet>();
  c->query = query;
  // Feedback-driven ESS-box shrinking: when the store has enough repeat
  // observations for this template, compile over the observed selectivity
  // support (plus guard band) instead of the declared ranges. The cache key
  // — which encodes the declared ranges — is unchanged, and SnapToGrid
  // clamps out-of-box actuals to the grid edge, so correctness (ladder
  // completion) is unaffected; only the grid the POSP explores shrinks.
  EssBox box;
  bool shrunk = false;
  if (options_.feedback != nullptr) {
    TemplateFeedback tf;
    if (options_.feedback->Lookup(TemplateHash(KeyFor(query)), &tf)) {
      shrunk = ShrunkenBox(query, tf, &box);
    }
  }
  if (shrunk) {
    c->grid = std::make_unique<EssGrid>(
        c->query, ShrunkenResolutions(query, box, ResolutionsFor(query)),
        box.lo, box.hi);
    c->shrunken_box = true;
  } else {
    c->grid = std::make_unique<EssGrid>(c->query, ResolutionsFor(query));
  }
  PospOptions posp;
  posp.pool = &pool_;
  posp.min_shard_points = options_.min_shard_points;
  c->diagram = std::make_unique<PlanDiagram>(
      GeneratePosp(c->query, *catalog_, options_.cost_params, *c->grid, posp,
                   &c->posp_stats));
  c->optimizer = std::make_unique<QueryOptimizer>(c->query, *catalog_,
                                                  options_.cost_params);
  c->bouquet = std::make_unique<PlanBouquet>(
      BuildBouquet(*c->diagram, c->optimizer.get(), options_.bouquet_params));
  FinishCompiledBouquet(c.get(), *catalog_, options_.cost_params,
                        options_.sim_options);
  c->compile_seconds = SecondsSince(t0);
  return c;
}

void BouquetService::RecordCompileStatsLocked(const CompiledBouquet& c) {
  ++stats_.cache_misses;
  ++stats_.compilations;
  if (c.shrunken_box) {
    ++stats_.feedback_box_shrinks;
    if (ins_.feedback_box_shrinks != nullptr) {
      ins_.feedback_box_shrinks->Inc();
    }
  }
  stats_.compile_seconds += c.compile_seconds;
  stats_.posp_dp_calls += c.posp_stats.dp_calls;
  stats_.posp_recost_hits += c.posp_stats.recost_hits;
  stats_.posp_bound_subsets += c.posp_stats.bound_subsets;
  stats_.posp_recost_nodes += c.posp_stats.recost_nodes;
  stats_.posp_memo_hits += c.posp_stats.memo_hits;
  stats_.posp_audit_checks += c.posp_stats.audit_checks;
  stats_.posp_audit_failures += c.posp_stats.audit_failures;
}

Result<std::shared_ptr<const CompiledBouquet>> BouquetService::GetOrCompile(
    const QuerySpec& query, ServiceResult* result, const obs::Span* parent) {
  const std::string key = KeyFor(query);
  if (result != nullptr) result->template_hash = TemplateHash(key);
  const auto t0 = std::chrono::steady_clock::now();

  if (auto c = cache_.Get(key)) {
    if (result != nullptr) {
      result->cache_hit = true;
      result->compile_seconds = SecondsSince(t0);
    }
    if (ins_.cache_hits != nullptr) ins_.cache_hits->Inc();
    MutexLock lock(&stats_mu_);
    ++stats_.cache_hits;
    return c;
  }

  const Status valid = query.Validate(*catalog_);
  if (!valid.ok()) return valid;

  std::promise<std::shared_ptr<const CompiledBouquet>> promise;
  std::shared_future<std::shared_ptr<const CompiledBouquet>> fut;
  bool leader = false;
  {
    MutexLock lock(&inflight_mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      fut = it->second;
    } else if (auto c = cache_.Get(key)) {
      // A leader finished between the unlocked lookup and here.
      if (result != nullptr) {
        result->cache_hit = true;
        result->compile_seconds = SecondsSince(t0);
      }
      if (ins_.cache_hits != nullptr) ins_.cache_hits->Inc();
      MutexLock slock(&stats_mu_);
      ++stats_.cache_hits;
      return c;
    } else {
      leader = true;
      fut = promise.get_future().share();
      inflight_.emplace(key, fut);
    }
  }

  if (leader) {
    obs::Span compile_span =
        obs::Tracer::Begin(options_.tracer, "service.compile", parent);
    auto c = Compile(query);
    if (compile_span.enabled()) {
      compile_span.Num("compile_seconds", c->compile_seconds)
          .Num("num_plans", static_cast<double>(c->diagram->num_plans()))
          .Num("num_contours",
               static_cast<double>(c->bouquet->contours.size()));
      compile_span.End();
    }
    cache_.Put(key, c);
    {
      MutexLock lock(&inflight_mu_);
      inflight_.erase(key);
    }
    promise.set_value(c);
    if (result != nullptr) {
      result->compiled = true;
      result->compile_seconds = SecondsSince(t0);
    }
    if (ins_.cache_misses != nullptr) ins_.cache_misses->Inc();
    if (ins_.compile_seconds != nullptr) {
      ins_.compile_seconds->Observe(c->compile_seconds);
    }
    MutexLock lock(&stats_mu_);
    RecordCompileStatsLocked(*c);
    return c;
  }

  // Single-flight follower: block until the leader publishes the bundle.
  auto c = fut.get();
  if (result != nullptr) {
    result->shared_compile = true;
    result->compile_seconds = SecondsSince(t0);
  }
  if (ins_.shared_compiles != nullptr) ins_.shared_compiles->Inc();
  MutexLock lock(&stats_mu_);
  ++stats_.shared_compiles;
  return c;
}

uint64_t BouquetService::SnapToGrid(const EssGrid& grid,
                                    const DimVector& actual) const {
  GridPoint p(grid.dims());
  for (int d = 0; d < grid.dims(); ++d) {
    const double s = actual[d];
    const int lo = grid.AxisFloor(d, s);
    const int hi = grid.AxisCeil(d, s);
    if (lo == hi) {
      p[d] = lo;
    } else {
      // Nearest neighbor in log space (the axes are log-spaced).
      const double dlo = std::log(s / grid.axis(d)[lo]);
      const double dhi = std::log(grid.axis(d)[hi] / s);
      p[d] = dlo <= dhi ? lo : hi;
    }
  }
  return grid.LinearIndex(p);
}

Status BouquetService::ValidateRequest(const ServiceRequest& request) const {
  if (request.mode == ExecutionMode::kSimulate &&
      static_cast<int>(request.actual_selectivities.size()) !=
          request.query.NumDims()) {
    return Status::InvalidArgument(StrPrintf(
        "request has %zu actual selectivities, query has %d error dims",
        request.actual_selectivities.size(), request.query.NumDims()));
  }
  if (request.mode == ExecutionMode::kRealData &&
      options_.database == nullptr) {
    return Status::FailedPrecondition(
        "kRealData requires ServiceOptions::database");
  }
  return Status::Ok();
}

Result<ServiceResult> BouquetService::Run(const ServiceRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  ServiceResult r;
  r.mode = request.mode;

  const Status valid = ValidateRequest(request);
  if (!valid.ok()) return valid;
  InflightScope inflight(this);

  // Admit the request into the counters *before* GetOrCompile bumps the
  // hit/miss/shared counters: a stats() snapshot taken mid-request must
  // never show cache_hits + cache_misses + shared_compiles > requests
  // (it used to, transiently, which let CacheHitRate() exceed 1.0).
  {
    MutexLock lock(&stats_mu_);
    ++stats_.requests;
  }
  if (ins_.requests != nullptr) ins_.requests->Inc();

  obs::Span req_span = obs::Tracer::Begin(options_.tracer, "service.request");
  req_span.Num("mode",
               request.mode == ExecutionMode::kSimulate ? 0.0 : 1.0);

  auto bundle_or = GetOrCompile(request.query, &r, &req_span);
  if (!bundle_or.ok()) return bundle_or.status();
  std::shared_ptr<const CompiledBouquet> c = std::move(bundle_or).value();

  ExecuteWithBundle(request, c, &req_span, t0, &r);
  return r;
}

void BouquetService::RecordFeedback(const ServiceRequest& request,
                                    const CompiledBouquet& c,
                                    const ServiceResult& r,
                                    const obs::Span* parent) {
  FeedbackStore* fb = options_.feedback;
  if (fb == nullptr) return;
  FeedbackObservation observed;
  observed.template_hash = r.template_hash;
  const int num_contours = static_cast<int>(c.bouquet->contours.size());
  if (request.mode == ExecutionMode::kSimulate) {
    if (!r.sim.completed || r.sim.fallback_used) return;
    // Simulation knows q_a exactly: record the snapped actual location.
    observed.selectivities = c.grid->SelectivityAt(
        SnapToGrid(*c.grid, request.actual_selectivities));
    observed.final_contour =
        std::min(r.sim.final_contour, num_contours - 1);
  } else {
    if (!r.real.completed || r.real.discovered_selectivities.empty()) return;
    // Real data: record the discovered q_run lower bounds, which never
    // overstate the actual selectivities.
    observed.selectivities = r.real.discovered_selectivities;
    observed.final_contour =
        std::min(r.real.contours_crossed, num_contours - 1);
  }
  obs::Span span =
      obs::Tracer::Begin(options_.tracer, "feedback.record", parent);
  const Status s = fb->Record(observed);
  if (s.ok()) {
    if (ins_.feedback_records != nullptr) ins_.feedback_records->Inc();
    MutexLock lock(&stats_mu_);
    ++stats_.feedback_records;
  }
  if (span.enabled()) {
    span.Flag("ok", s.ok())
        .Num("final_contour", static_cast<double>(observed.final_contour));
    span.End();
  }
}

void BouquetService::ExecuteWithBundle(
    const ServiceRequest& request,
    const std::shared_ptr<const CompiledBouquet>& c, obs::Span* req_span,
    std::chrono::steady_clock::time_point t0, ServiceResult* out) {
  ServiceResult& r = *out;
  const auto e0 = std::chrono::steady_clock::now();
  if (request.mode == ExecutionMode::kSimulate) {
    const uint64_t qa = SnapToGrid(*c->grid, request.actual_selectivities);
    r.sim = c->simulator->RunOptimized(qa);
    c->simulator->EmitTrace(r.sim, qa, options_.tracer, req_span);
    if (ins_.suboptimality != nullptr) {
      ins_.suboptimality->Observe(c->simulator->SubOpt(r.sim, qa));
    }
  } else {
    // Per-request optimizer + driver: both are bound to this request's
    // constants and neither is shared across threads. The contour index is
    // the bundle's, built once when it was compiled or loaded.
    QueryOptimizer run_opt(request.query, *catalog_, options_.cost_params);
    BouquetDriver driver(*c->bouquet, *c->diagram, c->simulator->index(),
                         &run_opt, options_.database);
    driver.SetObservability(options_.tracer, options_.metrics, req_span);
    r.real = driver.RunOptimized();
  }
  RecordFeedback(request, *c, r, req_span);
  r.execute_seconds = SecondsSince(e0);
  r.latency_seconds = SecondsSince(t0);
  r.compiled_bundle = c;

  if (req_span->enabled()) {
    req_span->Num("template_hash", static_cast<double>(r.template_hash))
        .Flag("cache_hit", r.cache_hit)
        .Flag("compiled", r.compiled)
        .Flag("shared_compile", r.shared_compile)
        .Num("compile_seconds", r.compile_seconds)
        .Num("execute_seconds", r.execute_seconds);
    req_span->End();
  }

  // Per-request run-phase aggregates, folded into both the ServiceStats
  // snapshot and (when attached) the metrics registry.
  uint64_t executions = 0, crossings = 0, spills = 0, fallbacks = 0;
  if (request.mode == ExecutionMode::kSimulate) {
    executions = static_cast<uint64_t>(r.sim.num_executions);
    crossings = static_cast<uint64_t>(std::max(r.sim.final_contour, 0));
    for (const SimStep& s : r.sim.steps) {
      // The simulator stamps learned_dim on every step, including the
      // completing one; only aborted steps actually spill-learned.
      if (!s.completed && s.learned_dim >= 0) ++spills;
    }
    if (r.sim.fallback_used) fallbacks = 1;
  } else {
    executions = static_cast<uint64_t>(r.real.num_executions);
    crossings = static_cast<uint64_t>(std::max(r.real.contours_crossed, 0));
    for (const DriverStep& s : r.real.steps) {
      if (s.spilled) ++spills;
    }
  }
  if (ins_.plan_executions != nullptr) {
    ins_.plan_executions->Inc(executions);
    ins_.contour_crossings->Inc(crossings);
    ins_.spills->Inc(spills);
    ins_.fallbacks->Inc(fallbacks);
  }

  {
    MutexLock lock(&stats_mu_);
    stats_.execute_seconds += r.execute_seconds;
    stats_.latency_seconds += r.latency_seconds;
    stats_.plan_executions += executions;
    stats_.contour_crossings += crossings;
    stats_.spills += spills;
    stats_.fallbacks += fallbacks;
    if (ins_.cache_hit_rate != nullptr) {
      ins_.cache_hit_rate->Set(stats_.CacheHitRate());
    }
  }
}

Result<std::vector<ServiceResult>> BouquetService::RunBatch(
    const std::vector<ServiceRequest>& requests, const obs::Span* parent) {
  if (requests.empty()) {
    return Status::InvalidArgument("RunBatch: empty batch");
  }
  const std::string key = KeyFor(requests.front().query);
  for (const ServiceRequest& request : requests) {
    const Status valid = ValidateRequest(request);
    if (!valid.ok()) return valid;
    if (KeyFor(request.query) != key) {
      return Status::InvalidArgument(
          "RunBatch: requests span multiple template keys");
    }
  }
  InflightScope inflight(this);

  const auto t0 = std::chrono::steady_clock::now();
  {
    MutexLock lock(&stats_mu_);
    stats_.requests += requests.size();
    ++stats_.batches;
    stats_.batch_requests += requests.size();
  }
  if (ins_.requests != nullptr) {
    ins_.requests->Inc(requests.size());
    ins_.batches->Inc();
    ins_.batch_requests->Inc(requests.size());
  }

  obs::Span batch_span =
      obs::Tracer::Begin(options_.tracer, "service.batch", parent);
  batch_span.Num("batch_size", static_cast<double>(requests.size()));

  // One bundle acquisition for the whole batch: the opener pays the compile
  // (or the single-flight wait), every other member is by construction a
  // cache hit on the shared bundle.
  ServiceResult leader;
  auto bundle_or = GetOrCompile(requests.front().query, &leader, &batch_span);
  if (!bundle_or.ok()) return bundle_or.status();
  std::shared_ptr<const CompiledBouquet> c = std::move(bundle_or).value();
  if (requests.size() > 1) {
    const uint64_t followers = requests.size() - 1;
    if (ins_.cache_hits != nullptr) ins_.cache_hits->Inc(followers);
    MutexLock lock(&stats_mu_);
    stats_.cache_hits += followers;
  }

  std::vector<ServiceResult> results(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ServiceResult& r = results[i];
    r.mode = requests[i].mode;
    r.template_hash = leader.template_hash;
    if (i == 0) {
      r.cache_hit = leader.cache_hit;
      r.shared_compile = leader.shared_compile;
      r.compiled = leader.compiled;
      r.compile_seconds = leader.compile_seconds;
    } else {
      r.cache_hit = true;
    }
    obs::Span req_span =
        obs::Tracer::Begin(options_.tracer, "service.request", &batch_span);
    req_span.Num("mode", 0.0).Num("batch_index", static_cast<double>(i));
    ExecuteWithBundle(requests[i], c, &req_span, t0, &r);
  }
  batch_span.End();
  return results;
}

Result<ServiceResult> BouquetService::RunSafePlan(
    const ServiceRequest& request, const obs::Span* parent) {
  const auto t0 = std::chrono::steady_clock::now();
  if (request.mode != ExecutionMode::kSimulate) {
    return Status::InvalidArgument(
        "RunSafePlan supports simulation mode only");
  }
  const Status valid = ValidateRequest(request);
  if (!valid.ok()) return valid;
  InflightScope inflight(this);

  const std::string key = KeyFor(request.query);
  ServiceResult r;
  r.mode = request.mode;
  r.degraded = true;
  r.template_hash = TemplateHash(key);

  // Cache-only on purpose: shedding exists to bound work under overload, so
  // it must never fault in a multi-second compile.
  std::shared_ptr<const CompiledBouquet> c = cache_.Get(key);
  if (c == nullptr) {
    return Status::FailedPrecondition(
        "RunSafePlan: template not compiled (safe plan unavailable)");
  }
  r.cache_hit = true;

  {
    MutexLock lock(&stats_mu_);
    ++stats_.requests;
    ++stats_.cache_hits;
    ++stats_.sheds;
  }
  if (ins_.requests != nullptr) {
    ins_.requests->Inc();
    ins_.cache_hits->Inc();
    ins_.sheds->Inc();
  }

  obs::Span span =
      obs::Tracer::Begin(options_.tracer, "service.safe_plan", parent);
  const auto e0 = std::chrono::steady_clock::now();
  const uint64_t qa = SnapToGrid(*c->grid, request.actual_selectivities);
  r.sim = c->simulator->RunSafe(qa);
  r.execute_seconds = SecondsSince(e0);
  r.latency_seconds = SecondsSince(t0);
  r.compiled_bundle = c;

  if (span.enabled()) {
    span.Num("template_hash", static_cast<double>(r.template_hash))
        .Num("safe_plan", static_cast<double>(c->simulator->safe_plan()))
        .Num("safe_budget", c->simulator->safe_budget())
        .Num("charged", r.sim.total_cost)
        .Flag("completed", r.sim.completed);
    span.End();
  }

  if (ins_.plan_executions != nullptr) {
    ins_.plan_executions->Inc(static_cast<uint64_t>(r.sim.num_executions));
  }
  {
    MutexLock lock(&stats_mu_);
    stats_.execute_seconds += r.execute_seconds;
    stats_.latency_seconds += r.latency_seconds;
    stats_.plan_executions += static_cast<uint64_t>(r.sim.num_executions);
    if (ins_.cache_hit_rate != nullptr) {
      ins_.cache_hit_rate->Set(stats_.CacheHitRate());
    }
  }
  return r;
}

std::future<Result<ServiceResult>> BouquetService::Submit(
    ServiceRequest request) {
  return pool_.Submit(
      [this, request = std::move(request)] { return Run(request); });
}

Status BouquetService::WarmStart(const QuerySpec& query,
                                 const std::string& path) {
  auto loaded_or = LoadBouquetFromFile(query, path);
  if (!loaded_or.ok()) return loaded_or.status();
  LoadedBouquet loaded = std::move(loaded_or).value();

  const std::vector<int> want = ResolutionsFor(query);
  for (int d = 0; d < loaded.grid->dims(); ++d) {
    if (loaded.grid->resolution(d) != want[d]) {
      return Status::FailedPrecondition(StrPrintf(
          "warm-start grid resolution %d on dim %d, service expects %d",
          loaded.grid->resolution(d), d, want[d]));
    }
  }

  auto c = std::make_shared<CompiledBouquet>();
  c->query = query;
  c->grid = std::move(loaded.grid);
  c->diagram = std::move(loaded.diagram);
  c->bouquet = std::move(loaded.bouquet);
  c->warm_started = true;
  FinishCompiledBouquet(c.get(), *catalog_, options_.cost_params,
                        options_.sim_options);
  cache_.Put(KeyFor(query), c);
  {
    MutexLock lock(&stats_mu_);
    ++stats_.warm_starts;
  }
  return Status::Ok();
}

ServiceStats BouquetService::stats() const {
  ServiceStats s;
  {
    MutexLock lock(&stats_mu_);
    s = stats_;
  }
  // Sampled outside stats_mu_ (a leaf lock: the pool's mutex must not be
  // taken under it).
  s.inflight_requests = static_cast<uint64_t>(
      std::max<int64_t>(0, inflight_now_.load(std::memory_order_relaxed)));
  s.peak_inflight_requests = static_cast<uint64_t>(
      std::max<int64_t>(0, inflight_peak_.load(std::memory_order_relaxed)));
  s.queue_depth = pool_.queue_depth();
  const CacheStats cs = cache_.stats();
  s.cache_warm_entries = cs.warm_entries;
  s.cache_warm_evictions = cs.warm_evictions;
  if (ins_.cache_warm_entries != nullptr) {
    ins_.cache_warm_entries->Set(static_cast<double>(cs.warm_entries));
    ins_.cache_warm_evictions->Set(static_cast<double>(cs.warm_evictions));
  }
  if (options_.database != nullptr &&
      options_.database->storage() != nullptr) {
    const storage::BufferStats b =
        options_.database->storage()->buffer()->stats();
    s.buffer_hits = b.hits;
    s.buffer_misses = b.misses;
    s.buffer_evictions = b.evictions;
    s.buffer_writebacks = b.writebacks;
    s.buffer_pinned_peak = b.pinned_peak;
  }
  return s;
}

}  // namespace bouquet
