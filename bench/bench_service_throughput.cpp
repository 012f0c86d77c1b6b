// Service-layer benchmark: parallel POSP compilation speedup and the
// concurrent serving throughput of BouquetService (requests/sec, cache hit
// rate, compile vs execute latency split) on a multi-D workload.
//
// This is infrastructure beyond the paper: Section 4.2's amortization
// argument ("canned" form-based queries) made operational — compile once
// per template, serve every binding from the cache.

// `--serve-smoke [out.json]` instead runs the full src/net/ serving stack
// (epoll reactors + batching router + MSO-safe shedding) against a loopback
// open-loop client and writes BENCH_serve.json (QPS, p50/p99 latency,
// compile and batch counts, degraded/shed totals) for the
// scripts/check_serve_smoke.py CI gate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"
#include "service/template_key.h"

namespace bouquet {
namespace {

using benchutil::PrintHeader;

constexpr int kPoolThreads = 8;

// Multi-D compile workload: 3D TPC-H space at default resolution (20^3).
QuerySpec CompileWorkloadQuery(const Catalog& tpch, const Catalog& tpcds) {
  return GetSpace("3D_H_Q5", tpch, tpcds).query;
}

void PrintReproduction() {
  PrintHeader("Concurrent bouquet service: compile speedup + throughput",
              "the Section 4.2 deployment model, beyond-paper scaling");
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const QuerySpec query = CompileWorkloadQuery(tpch, tpcds);
  const EssGrid grid = EssGrid::WithDefaultResolution(query);

  // --- Parallel POSP compilation: serial vs pool-sharded. ---------------
  PospStats serial_stats;
  GeneratePosp(query, tpch, CostParams::Postgres(), grid, PospOptions{},
               &serial_stats);
  ThreadPool pool(kPoolThreads);
  PospOptions par;
  par.pool = &pool;
  PospStats par_stats;
  GeneratePosp(query, tpch, CostParams::Postgres(), grid, par, &par_stats);
  const double speedup = par_stats.wall_seconds > 0.0
                             ? serial_stats.wall_seconds /
                                   par_stats.wall_seconds
                             : 0.0;
  std::printf("\n  POSP compilation of %s (%llu points)\n",
              query.name.c_str(),
              static_cast<unsigned long long>(grid.num_points()));
  std::printf("    serial:        %8.2fs   %lld DP calls, %lld recost "
              "hits, %lld memo hits\n",
              serial_stats.wall_seconds, serial_stats.dp_calls,
              serial_stats.recost_hits, serial_stats.memo_hits);
  std::printf("    pool (%d thr): %8.2fs   %lld DP calls, %lld recost "
              "hits   speedup %.2fx\n",
              kPoolThreads, par_stats.wall_seconds, par_stats.dp_calls,
              par_stats.recost_hits, speedup);

  // --- Serving throughput: repeated templates, concurrent requests. -----
  ServiceOptions opts;
  opts.num_threads = kPoolThreads;
  BouquetService service(tpch, opts);

  const int kTemplates = 2;
  const int kRequests = 256;
  std::vector<QuerySpec> templates;
  templates.push_back(query);
  {
    QuerySpec second = query;
    second.error_dims[0].lo *= 10.0;  // distinct ESS range => new template
    templates.push_back(second);
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<Result<ServiceResult>>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ServiceRequest req;
    req.query = templates[i % kTemplates];
    const int dims = req.query.NumDims();
    req.actual_selectivities.assign(dims, 0.0);
    for (int d = 0; d < dims; ++d) {
      req.actual_selectivities[d] =
          0.001 + 0.9 * ((i * 31 + d * 17) % 97) / 96.0;
    }
    futs.push_back(service.Submit(std::move(req)));
  }
  int completed = 0;
  double sum_subopt_cost = 0.0;
  for (auto& f : futs) {
    auto res = f.get();
    if (res.ok() && res->sim.completed) {
      ++completed;
      sum_subopt_cost += res->sim.total_cost;
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const ServiceStats s = service.stats();
  std::printf("\n  Served %d/%d requests (%d templates) in %.2fs  =>  "
              "%.1f req/s\n",
              completed, kRequests, kTemplates, wall, kRequests / wall);
  std::printf("    compilations:   %llu (single-flight dedup)\n",
              static_cast<unsigned long long>(s.compilations));
  std::printf("    cache hit rate: %.1f%%  (%llu hits, %llu misses, %llu "
              "shared waits)\n",
              100.0 * s.CacheHitRate(),
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.cache_misses),
              static_cast<unsigned long long>(s.shared_compiles));
  std::printf("    time split:     compile %.2fs total, execute %.4fs "
              "total, mean latency %.2fms\n",
              s.compile_seconds, s.execute_seconds,
              1000.0 * s.latency_seconds / s.requests);
  // Cache-cold compile work vs cache-warm serving: every DP/recost below
  // happened inside the s.compilations cold compiles; the cache_hits warm
  // requests did zero POSP work.
  std::printf("    cold compiles:  %lld DP calls + %lld recost hits "
              "(%lld memo hits) across %llu compilations\n",
              s.posp_dp_calls, s.posp_recost_hits, s.posp_memo_hits,
              static_cast<unsigned long long>(s.compilations));
  std::printf("    compile work:   %lld subset bounds, %lld recost nodes\n",
              s.posp_bound_subsets, s.posp_recost_nodes);
  std::printf("    audit:          %lld sampled re-derivations, %lld "
              "failures\n",
              s.posp_audit_checks, s.posp_audit_failures);
  std::printf("    concurrency:    peak %llu in-flight requests (%llu now), "
              "pool queue depth %llu, %llu sheds\n",
              static_cast<unsigned long long>(s.peak_inflight_requests),
              static_cast<unsigned long long>(s.inflight_requests),
              static_cast<unsigned long long>(s.queue_depth),
              static_cast<unsigned long long>(s.sheds));
  std::printf("\n  Expected shape: one compilation per template, hit rate "
              "-> (M-1)/M, compile\n  speedup tracking the core count, and "
              "DP calls well below grid points per compile\n  (the "
              "incremental fast path serves the rest).\n");
}

// range(0) selects observability: 0 = off — detached sinks must cost only
// null checks, so this row is the tracer-off overhead budget (<= 2% vs. an
// uninstrumented build) — 1 = tracer + metrics attached, which pays for
// span allocation and is expected to be visibly slower on cached requests.
void BM_ServiceCachedRequest(benchmark::State& state) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  obs::Tracer tracer(1 << 14);
  obs::MetricsRegistry metrics;
  ServiceOptions opts;
  opts.num_threads = 4;
  if (state.range(0) > 0) {
    opts.tracer = &tracer;
    opts.metrics = &metrics;
  }
  BouquetService service(tpch, opts);
  QuerySpec query = MakeEqQuery(tpch);
  ServiceRequest warm;
  warm.query = query;
  warm.actual_selectivities = {0.1};
  benchmark::DoNotOptimize(service.Run(warm));  // populate the cache
  double s = 0.001;
  for (auto _ : state) {
    ServiceRequest req;
    req.query = query;
    s = s < 0.9 ? s * 1.7 : 0.001;
    req.actual_selectivities = {s};
    auto res = service.Run(req);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceCachedRequest)
    ->Arg(0)  // observability off
    ->Arg(1)  // tracer + metrics on
    ->Unit(benchmark::kMicrosecond);

void BM_PoolPospCompile3D(benchmark::State& state) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const QuerySpec query = CompileWorkloadQuery(tpch, tpcds);
  const EssGrid grid(query, {12, 12, 12});
  ThreadPool pool(static_cast<int>(state.range(0)));
  PospOptions opts;
  if (state.range(0) > 0) opts.pool = &pool;
  for (auto _ : state) {
    const PlanDiagram d =
        GeneratePosp(query, tpch, CostParams::Postgres(), grid, opts);
    benchmark::DoNotOptimize(d.num_plans());
  }
}
BENCHMARK(BM_PoolPospCompile3D)
    ->Arg(0)  // serial
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --serve-smoke: loopback open-loop load over the real wire protocol.
// ---------------------------------------------------------------------------

struct ServePhaseResult {
  int requests = 0;
  int completed = 0;
  int degraded = 0;
  int errors = 0;
  double wall_seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

double Percentile(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const size_t idx = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

// Pipelines `n` QUERY frames for `query` at the server, then collects the
// `n` responses, measuring per-request latency from send to receive.
bool RunOpenLoopBurst(net::BlockingClient& client, const QuerySpec& query,
                      int n, uint64_t id_base, ServePhaseResult* out) {
  std::unordered_map<uint64_t, std::chrono::steady_clock::time_point> sent;
  sent.reserve(static_cast<size_t>(n));
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    net::QueryMsg q;
    q.request_id = id_base + static_cast<uint64_t>(i);
    q.tenant_id = static_cast<uint32_t>(i % 4);
    q.template_name = query.name;
    const int dims = query.NumDims();
    q.selectivities.assign(static_cast<size_t>(dims), 0.0);
    for (int d = 0; d < dims; ++d) {
      q.selectivities[static_cast<size_t>(d)] =
          0.001 + 0.9 * ((i * 31 + d * 17) % 97) / 96.0;
    }
    sent[q.request_id] = std::chrono::steady_clock::now();
    if (!client.SendFrame(net::EncodeQuery(q)).ok()) return false;
  }
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto frame_or = client.RecvFrame();
    if (!frame_or.ok()) return false;
    const auto now = std::chrono::steady_clock::now();
    uint64_t request_id = 0;
    if (static_cast<net::FrameType>(frame_or.value().type) ==
        net::FrameType::kError) {
      ++out->errors;
      net::ErrorMsg e;
      if (net::DecodeError(frame_or.value(), &e).ok()) request_id = e.request_id;
    } else {
      net::ResultMsg r;
      if (!net::DecodeResult(frame_or.value(), &r).ok()) return false;
      request_id = r.request_id;
      if ((r.flags & net::kResultCompleted) != 0) ++out->completed;
      if ((r.flags & net::kResultDegraded) != 0) ++out->degraded;
    }
    const auto it = sent.find(request_id);
    if (it != sent.end()) {
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(now - it->second)
              .count());
    }
  }
  out->requests = n;
  out->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  out->p50_ms = Percentile(latencies_ms, 0.50);
  out->p99_ms = Percentile(latencies_ms, 0.99);
  return true;
}

// Two phases against one shared (warm-cached) service:
//   serve:    generous queue bound -> pure throughput + batching shape;
//   overload: tiny queue bound, slow batch window -> forced DEGRADED sheds
//             with queue depth provably bounded.
int RunServeSmoke(const char* out_path) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  obs::Tracer tracer(1 << 15);
  obs::MetricsRegistry metrics;
  ServiceOptions sopts;
  sopts.num_threads = kPoolThreads;
  sopts.grid_resolution = 24;
  sopts.min_shard_points = 1;
  sopts.tracer = &tracer;
  sopts.metrics = &metrics;
  BouquetService service(tpch, sopts);
  const QuerySpec query = MakeEqQuery(tpch);

  const int kServeRequests = 2000;
  ServePhaseResult serve;
  net::RouterStats serve_router;
  {
    net::ServerOptions nopts;
    nopts.num_reactors = 2;
    nopts.router.batch_window_ms = 1.0;
    nopts.router.max_batch = 32;
    nopts.router.max_queue_depth = 4096;
    nopts.router.max_inflight_batches = 8;
    nopts.tracer = &tracer;
    nopts.metrics = &metrics;
    net::BouquetServer server(&service, nopts);
    if (!server.RegisterTemplate(query).ok() || !server.Start().ok()) {
      std::fprintf(stderr, "serve-smoke: server start failed\n");
      return 1;
    }
    auto client_or = net::BlockingClient::Connect(server.port());
    if (!client_or.ok()) return 1;
    net::BlockingClient client = std::move(client_or).value();
    if (!client.Hello().ok()) return 1;
    // Warm the template cache synchronously so the burst measures serving,
    // not the one-time compile (which the JSON still reports).
    net::QueryMsg warm;
    warm.request_id = 1;
    warm.template_name = query.name;
    warm.selectivities = {0.1};
    auto warm_or = client.Query(warm);
    if (!warm_or.ok() || !warm_or->ok) {
      std::fprintf(stderr, "serve-smoke: warm query failed\n");
      return 1;
    }
    if (!RunOpenLoopBurst(client, query, kServeRequests, 1000, &serve)) {
      std::fprintf(stderr, "serve-smoke: burst failed\n");
      return 1;
    }
    serve_router = server.router().stats();
    (void)client.ShutdownServer();
    server.Wait();
  }
  const ServiceStats after_serve = service.stats();

  const int kOverloadRequests = 400;
  const int kOverloadQueueBound = 8;
  ServePhaseResult overload;
  net::RouterStats overload_router;
  {
    net::ServerOptions nopts;
    nopts.num_reactors = 1;
    nopts.router.batch_window_ms = 20.0;  // slow consumer: force backlog
    nopts.router.max_batch = 8;
    nopts.router.max_queue_depth = kOverloadQueueBound;
    nopts.router.max_inflight_batches = 1;
    nopts.tracer = &tracer;
    nopts.metrics = &metrics;
    net::BouquetServer server(&service, nopts);
    if (!server.RegisterTemplate(query).ok() || !server.Start().ok()) {
      std::fprintf(stderr, "serve-smoke: overload server start failed\n");
      return 1;
    }
    auto client_or = net::BlockingClient::Connect(server.port());
    if (!client_or.ok()) return 1;
    net::BlockingClient client = std::move(client_or).value();
    if (!client.Hello().ok()) return 1;
    if (!RunOpenLoopBurst(client, query, kOverloadRequests, 500000,
                          &overload)) {
      std::fprintf(stderr, "serve-smoke: overload burst failed\n");
      return 1;
    }
    overload_router = server.router().stats();
    (void)client.ShutdownServer();
    server.Wait();
  }
  const ServiceStats after_overload = service.stats();

  const double qps =
      serve.wall_seconds > 0.0 ? serve.requests / serve.wall_seconds : 0.0;
  const double mean_batch =
      after_serve.batches > 0
          ? static_cast<double>(after_serve.batch_requests) /
                static_cast<double>(after_serve.batches)
          : 0.0;

  std::printf("serve-smoke: %d req in %.2fs => %.1f req/s  p50 %.2fms  "
              "p99 %.2fms  %llu compilations  %llu batches (mean %.1f)\n",
              serve.requests, serve.wall_seconds, qps, serve.p50_ms,
              serve.p99_ms,
              static_cast<unsigned long long>(after_serve.compilations),
              static_cast<unsigned long long>(after_serve.batches),
              mean_batch);
  std::printf("overload:    %d req -> %d completed, %d degraded (shed "
              "%llu), peak queue %llu (bound %d)\n",
              overload.requests, overload.completed, overload.degraded,
              static_cast<unsigned long long>(overload_router.shed),
              static_cast<unsigned long long>(
                  overload_router.peak_queue_depth),
              kOverloadQueueBound);

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "serve-smoke: cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"serve\": {\n");
  std::fprintf(f, "    \"requests\": %d,\n", serve.requests);
  std::fprintf(f, "    \"completed\": %d,\n", serve.completed);
  std::fprintf(f, "    \"degraded\": %d,\n", serve.degraded);
  std::fprintf(f, "    \"errors\": %d,\n", serve.errors);
  std::fprintf(f, "    \"wall_seconds\": %.6f,\n", serve.wall_seconds);
  std::fprintf(f, "    \"qps\": %.2f,\n", qps);
  std::fprintf(f, "    \"p50_ms\": %.4f,\n", serve.p50_ms);
  std::fprintf(f, "    \"p99_ms\": %.4f,\n", serve.p99_ms);
  std::fprintf(f, "    \"compilations\": %llu,\n",
               static_cast<unsigned long long>(after_serve.compilations));
  std::fprintf(f, "    \"batches\": %llu,\n",
               static_cast<unsigned long long>(after_serve.batches));
  std::fprintf(f, "    \"mean_batch_size\": %.3f,\n", mean_batch);
  std::fprintf(f, "    \"throttled\": %llu,\n",
               static_cast<unsigned long long>(serve_router.throttled));
  std::fprintf(f, "    \"peak_inflight_requests\": %llu\n",
               static_cast<unsigned long long>(
                   after_serve.peak_inflight_requests));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"overload\": {\n");
  std::fprintf(f, "    \"requests\": %d,\n", overload.requests);
  std::fprintf(f, "    \"completed\": %d,\n", overload.completed);
  std::fprintf(f, "    \"degraded\": %d,\n", overload.degraded);
  std::fprintf(f, "    \"errors\": %d,\n", overload.errors);
  std::fprintf(f, "    \"shed\": %llu,\n",
               static_cast<unsigned long long>(overload_router.shed));
  std::fprintf(f, "    \"service_sheds\": %llu,\n",
               static_cast<unsigned long long>(after_overload.sheds));
  std::fprintf(f, "    \"peak_queue_depth\": %llu,\n",
               static_cast<unsigned long long>(
                   overload_router.peak_queue_depth));
  std::fprintf(f, "    \"max_queue_depth\": %d,\n", kOverloadQueueBound);
  std::fprintf(f, "    \"compilations\": %llu\n",
               static_cast<unsigned long long>(after_overload.compilations));
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("serve-smoke: wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace bouquet

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve-smoke") == 0) {
      const char* out =
          i + 1 < argc ? argv[i + 1] : "BENCH_serve.json";
      return bouquet::RunServeSmoke(out);
    }
  }
  bouquet::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
