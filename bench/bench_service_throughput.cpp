// Service-layer benchmark: parallel POSP compilation speedup and the
// concurrent serving throughput of BouquetService (requests/sec, cache hit
// rate, compile vs execute latency split) on a multi-D workload.
//
// This is infrastructure beyond the paper: Section 4.2's amortization
// argument ("canned" form-based queries) made operational — compile once
// per template, serve every binding from the cache.
//
// The wire server's throughput is measured end to end by perfbench's
// serve_wire workload; its amortization, batching and shedding are pinned
// by test_service and test_net.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"

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

}  // namespace
}  // namespace bouquet

int main(int argc, char** argv) {
  bouquet::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
