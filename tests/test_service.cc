// Tests for the concurrent bouquet service layer: ThreadPool semantics
// (including nest-safety), template-key structural identity, BouquetCache
// LRU eviction + counters, single-flight compilation dedup, pool-parallel
// POSP determinism, warm-start from serialized bouquets, the per-request
// stats split, and feedback: records that leave climbs unchanged, the
// shrunken-box compile, and a request far outside a stale shrunken box.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bouquet/serialize.h"
#include "common/thread_pool.h"
#include "ess/posp_generator.h"
#include "feedback/shrunken_box.h"
#include "service/bouquet_cache.h"
#include "service/service.h"
#include "service/template_key.h"
#include "workloads/spaces.h"
#include "workloads/tpch.h"

namespace bouquet {
namespace {

// Result rows echo join columns in plan-dependent order (the executor emits
// the executing plan's schema), so cross-plan result equality is multiset
// equality over per-row value multisets.
std::vector<Row> CanonicalRows(std::vector<Row> rows) {
  for (Row& row : rows) std::sort(row.begin(), row.end());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, SubmitReturnsFutureResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<int> visits(1000, 0);
  pool.ParallelFor(0, visits.size(), 7, [&](uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) ++visits[i];
  });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleChunk) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](uint64_t, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(0, 3, 100, [&](uint64_t b, uint64_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 3u);
  });
  EXPECT_EQ(calls, 1);
}

// A pool task may itself ParallelFor over the same pool: the calling thread
// claims chunks, so this completes even when every worker is busy.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::future<uint64_t>> futs;
  for (int t = 0; t < 4; ++t) {
    futs.push_back(pool.Submit([&pool] {
      std::atomic<uint64_t> sum{0};
      pool.ParallelFor(0, 100, 9, [&](uint64_t b, uint64_t e) {
        for (uint64_t i = b; i < e; ++i) {
          sum.fetch_add(i, std::memory_order_relaxed);
        }
      });
      return sum.load();
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), 4950u);
}

// ------------------------------------------------------------- Template keys

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : catalog_(MakeTpchCatalog(1.0)), query_(MakeEqQuery(catalog_)) {}

  ServiceOptions FastOptions() const {
    ServiceOptions o;
    o.num_threads = 4;
    o.grid_resolution = 30;
    o.min_shard_points = 1;  // force multi-shard POSP even on tiny grids
    o.cache_shards = 1;
    return o;
  }

  Catalog catalog_;
  QuerySpec query_;
};

TEST_F(ServiceTest, TemplateKeyIgnoresErrorDimConstantsAndName) {
  const std::vector<int> res{30};
  const CostParams cp = CostParams::Postgres();
  const BouquetParams bp;
  const std::string base = TemplateSignature(query_, res, cp, bp);

  // Binding the error-prone predicate's constant = same template (the whole
  // point of the cache: compile once, serve every binding).
  QuerySpec bound = query_;
  bound.filters[0].constant = 1234;
  bound.name = "EQ-instance-7";
  EXPECT_EQ(TemplateSignature(bound, res, cp, bp), base);

  // Anything the compiled artifact depends on changes the key.
  QuerySpec wider = query_;
  wider.error_dims[0].lo = 1e-3;
  EXPECT_NE(TemplateSignature(wider, res, cp, bp), base);

  BouquetParams other_bp;
  other_bp.lambda = 0.3;
  EXPECT_NE(TemplateSignature(query_, res, cp, other_bp), base);

  EXPECT_NE(TemplateSignature(query_, {40}, cp, bp), base);
  EXPECT_NE(TemplateSignature(query_, res, CostParams::Commercial(), bp),
            base);

  // Hash is stable and key-discriminating on this set.
  EXPECT_EQ(TemplateHash(base), TemplateHash(base));
  EXPECT_NE(TemplateHash(base),
            TemplateHash(TemplateSignature(wider, res, cp, bp)));
}

// ------------------------------------------------------------- BouquetCache

std::shared_ptr<const CompiledBouquet> DummyBundle() {
  return std::make_shared<CompiledBouquet>();
}

TEST(BouquetCacheTest, LruEvictionAndCounters) {
  BouquetCache cache(2, /*num_shards=*/1);
  EXPECT_EQ(cache.Get("a"), nullptr);  // miss
  cache.Put("a", DummyBundle());
  cache.Put("b", DummyBundle());
  EXPECT_NE(cache.Get("a"), nullptr);  // hit; bumps "a" to MRU
  cache.Put("c", DummyBundle());       // evicts LRU = "b"
  EXPECT_EQ(cache.Get("b"), nullptr);  // miss (evicted)
  EXPECT_NE(cache.Get("a"), nullptr);  // survived
  EXPECT_NE(cache.Get("c"), nullptr);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_NEAR(s.HitRate(), 3.0 / 5.0, 1e-12);
}

TEST(BouquetCacheTest, PutOverwritesWithoutEviction) {
  BouquetCache cache(2, 1);
  cache.Put("a", DummyBundle());
  auto replacement = DummyBundle();
  cache.Put("a", replacement);
  EXPECT_EQ(cache.Get("a"), replacement);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BouquetCacheTest, EvictedBundleSurvivesViaSharedPtr) {
  BouquetCache cache(1, 1);
  auto held = DummyBundle();
  cache.Put("a", held);
  cache.Put("b", DummyBundle());  // evicts "a"
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(held.use_count(), 1);  // still alive for in-flight requests
}

// ------------------------------------------------- Parallel POSP determinism

TEST_F(ServiceTest, PoolParallelPospIdenticalToSerial) {
  const EssGrid grid(query_, {40});
  const PlanDiagram serial =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid);

  ThreadPool pool(4);
  PospOptions opts;
  opts.pool = &pool;
  opts.min_shard_points = 1;  // many shards, each with a private optimizer
  PospStats stats;
  const PlanDiagram parallel = GeneratePosp(
      query_, catalog_, CostParams::Postgres(), grid, opts, &stats);

  // Every point is accounted for by a full DP or a certified recost skip;
  // sharding must not lose or duplicate points.
  EXPECT_EQ(stats.dp_calls + stats.recost_hits,
            static_cast<long long>(grid.num_points()));
  EXPECT_EQ(stats.audit_failures, 0);
  ASSERT_EQ(parallel.num_plans(), serial.num_plans());
  for (uint64_t i = 0; i < grid.num_points(); ++i) {
    // Bit-identical: same interned plan ids, signatures, and costs.
    EXPECT_EQ(parallel.plan_at(i), serial.plan_at(i));
    EXPECT_EQ(parallel.plan(parallel.plan_at(i)).signature,
              serial.plan(serial.plan_at(i)).signature);
    EXPECT_DOUBLE_EQ(parallel.cost_at(i), serial.cost_at(i));
  }
}

// --------------------------------------------------------------- The service

TEST_F(ServiceTest, ServesRequestsAndReportsStatsSplit) {
  BouquetService service(catalog_, FastOptions());
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.05};
  auto res = service.Run(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sim.completed);
  EXPECT_FALSE(res->cache_hit);
  EXPECT_TRUE(res->compiled);
  EXPECT_GT(res->compile_seconds, 0.0);
  EXPECT_GE(res->latency_seconds,
            res->execute_seconds);  // latency covers compile + execute
  ASSERT_NE(res->compiled_bundle, nullptr);
  EXPECT_GE(res->compiled_bundle->bouquet->cardinality(), 1);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_GT(s.compile_seconds, 0.0);
  EXPECT_GE(s.latency_seconds, s.execute_seconds);
  // The compile's POSP counters arrive unchanged, the incremental layers'
  // work counters included.
  const PospStats& posp = res->compiled_bundle->posp_stats;
  EXPECT_EQ(s.posp_dp_calls, posp.dp_calls);
  EXPECT_EQ(s.posp_recost_hits, posp.recost_hits);
  EXPECT_EQ(s.posp_bound_subsets, posp.bound_subsets);
  EXPECT_EQ(s.posp_recost_nodes, posp.recost_nodes);
  EXPECT_GT(s.posp_bound_subsets, 0);
  EXPECT_GT(s.posp_recost_nodes, 0);
}

TEST_F(ServiceTest, RejectsMalformedRequests) {
  BouquetService service(catalog_, FastOptions());
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.05, 0.2};  // 1D query
  EXPECT_FALSE(service.Run(req).ok());

  ServiceRequest real;
  real.query = query_;
  real.mode = ExecutionMode::kRealData;  // no database configured
  EXPECT_FALSE(service.Run(real).ok());

  ServiceRequest bad;
  bad.query = query_;
  bad.query.tables.push_back("no_such_table");
  bad.actual_selectivities = {0.05};
  EXPECT_FALSE(service.Run(bad).ok());
}

TEST_F(ServiceTest, RepeatedTemplateHitRate) {
  BouquetService service(catalog_, FastOptions());
  const int M = 6;
  const double locations[M] = {0.001, 0.01, 0.05, 0.2, 0.5, 0.9};
  for (int i = 0; i < M; ++i) {
    ServiceRequest req;
    req.query = query_;
    req.query.filters[0].constant = 1000 + i;  // varying binding, same key
    req.actual_selectivities = {locations[i]};
    auto res = service.Run(req);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res->sim.completed);
    EXPECT_EQ(res->cache_hit, i > 0);
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, static_cast<uint64_t>(M));
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_EQ(s.cache_hits, static_cast<uint64_t>(M - 1));
  EXPECT_GE(s.CacheHitRate(), (M - 1.0) / M - 1e-12);
}

TEST_F(ServiceTest, SingleFlightDedupUnderConcurrency) {
  ServiceOptions opts = FastOptions();
  opts.num_threads = 8;
  BouquetService service(catalog_, opts);

  const int N = 8;
  std::vector<std::future<Result<ServiceResult>>> futs;
  for (int i = 0; i < N; ++i) {
    ServiceRequest req;
    req.query = query_;
    req.actual_selectivities = {0.001 * (i + 1) * 37};
    futs.push_back(service.Submit(std::move(req)));
  }
  int shared = 0, hits = 0, compiled = 0;
  for (auto& f : futs) {
    auto res = f.get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->sim.completed);
    shared += res->shared_compile ? 1 : 0;
    hits += res->cache_hit ? 1 : 0;
    compiled += res->compiled ? 1 : 0;
  }
  // Exactly one request compiled; everyone else either joined the in-flight
  // compilation or hit the cache afterwards.
  EXPECT_EQ(compiled, 1);
  EXPECT_EQ(shared + hits, N - 1);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.requests, static_cast<uint64_t>(N));
  EXPECT_EQ(service.cache().size(), 1u);
}

// Regression (stats admission ordering): requests used to be counted at the
// *end* of Run while GetOrCompile bumped cache_hits mid-request, so a
// concurrent stats() snapshot could observe cache_hits + cache_misses +
// shared_compiles > requests — i.e. CacheHitRate() > 1. Requests are now
// admitted into the counters before the cache is consulted, making the
// snapshot invariant hold at every instant.
TEST_F(ServiceTest, StatsSnapshotNeverOvercountsHits) {
  ServiceOptions opts = FastOptions();
  opts.num_threads = 4;
  BouquetService service(catalog_, opts);

  // Precompile the template so the workload below is all fast cache hits
  // (maximizing snapshot chances inside the hit window).
  {
    ServiceRequest req;
    req.query = query_;
    req.actual_selectivities = {0.05};
    ASSERT_TRUE(service.Run(req).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const ServiceStats s = service.stats();
      if (s.cache_hits + s.cache_misses + s.shared_compiles > s.requests) {
        violated.store(true);
      }
      if (s.CacheHitRate() > 1.0) violated.store(true);
    }
  });

  const int kThreads = 4, kIters = 150;
  std::vector<std::thread> runners;
  runners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    runners.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        ServiceRequest req;
        req.query = query_;
        req.actual_selectivities = {0.001 * ((t * kIters + i) % 900 + 1)};
        EXPECT_TRUE(service.Run(req).ok());
      }
    });
  }
  for (auto& r : runners) r.join();
  stop.store(true);
  snapshotter.join();

  EXPECT_FALSE(violated.load())
      << "stats snapshot showed more cache outcomes than admitted requests";
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, static_cast<uint64_t>(kThreads * kIters + 1));
  EXPECT_EQ(s.cache_hits, static_cast<uint64_t>(kThreads * kIters));
}

TEST_F(ServiceTest, DistinctTemplatesCompileSeparately) {
  BouquetService service(catalog_, FastOptions());
  ServiceRequest a;
  a.query = query_;
  a.actual_selectivities = {0.05};
  ASSERT_TRUE(service.Run(a).ok());

  ServiceRequest b;
  b.query = query_;
  b.query.error_dims[0].lo = 1e-3;  // different ESS range => new template
  b.actual_selectivities = {0.05};
  ASSERT_TRUE(service.Run(b).ok());

  EXPECT_EQ(service.stats().compilations, 2u);
  EXPECT_EQ(service.cache().size(), 2u);
}

TEST_F(ServiceTest, WarmStartServesWithoutCompiling) {
  // Offline: compile with the same configuration the service will use.
  const ServiceOptions opts = FastOptions();
  const EssGrid grid(query_, {opts.grid_resolution});
  const PlanDiagram diagram =
      GeneratePosp(query_, catalog_, opts.cost_params, grid);
  QueryOptimizer opt(query_, catalog_, opts.cost_params);
  const PlanBouquet bouquet =
      BuildBouquet(diagram, &opt, opts.bouquet_params);
  const std::string path =
      ::testing::TempDir() + "/test_service_warm_start.bouquet";
  ASSERT_TRUE(SaveBouquetToFile(diagram, bouquet, path).ok());

  // Online: a fresh service warm-starts from disk; no compilation happens.
  BouquetService service(catalog_, opts);
  ASSERT_TRUE(service.WarmStart(query_, path).ok())
      << service.WarmStart(query_, path).ToString();
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.2};
  auto res = service.Run(req);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->cache_hit);
  EXPECT_TRUE(res->sim.completed);
  EXPECT_TRUE(res->compiled_bundle->warm_started);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.compilations, 0u);
  EXPECT_EQ(s.warm_starts, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  std::remove(path.c_str());
}

TEST_F(ServiceTest, WarmStartRejectsResolutionMismatch) {
  const EssGrid grid(query_, {17});  // not the service's configured 30
  const PlanDiagram diagram =
      GeneratePosp(query_, catalog_, CostParams::Postgres(), grid);
  QueryOptimizer opt(query_, catalog_, CostParams::Postgres());
  const PlanBouquet bouquet = BuildBouquet(diagram, &opt);
  const std::string path =
      ::testing::TempDir() + "/test_service_warm_mismatch.bouquet";
  ASSERT_TRUE(SaveBouquetToFile(diagram, bouquet, path).ok());

  BouquetService service(catalog_, FastOptions());
  const Status st = service.WarmStart(query_, path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// Service results must agree with a directly-driven simulator: the cache
// and concurrency layers may not change the execution outcome.
TEST_F(ServiceTest, ServiceExecutionMatchesDirectSimulator) {
  const ServiceOptions opts = FastOptions();
  BouquetService service(catalog_, opts);

  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.3};
  auto res = service.Run(req);
  ASSERT_TRUE(res.ok());

  const auto& c = *res->compiled_bundle;
  // Reference: same bundle, direct call.
  const uint64_t qa = [&] {
    // Snap exactly as the service does: nearest axis point in log space.
    int best = 0;
    double best_d = 1e300;
    for (int i = 0; i < c.grid->resolution(0); ++i) {
      const double d = std::abs(std::log(0.3 / c.grid->axis(0)[i]));
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    return c.grid->LinearIndex(GridPoint{best});
  }();
  const SimResult direct = c.simulator->RunOptimized(qa);
  EXPECT_EQ(res->sim.total_cost, direct.total_cost);
  EXPECT_EQ(res->sim.num_executions, direct.num_executions);
  EXPECT_EQ(res->sim.final_plan, direct.final_plan);
}

// ------------------------------------------------------- Real-data serving

// Concurrent kRealData requests: every binding of the form shares one
// compiled template; each request gets its own driver + optimizer and runs
// the Volcano executor against the shared (internally-locked) Database.
TEST(ServiceRealDataTest, ConcurrentDriverExecutions) {
  Database db;
  TpchDataOptions data_opts;
  data_opts.mini_scale = 0.1;
  MakeTpchDatabase(&db, data_opts);
  Catalog catalog;
  SyncTpchCatalog(db, &catalog);
  QuerySpec form = Make2DHQ8a(catalog);

  ServiceOptions opts;
  opts.num_threads = 4;
  opts.grid_resolution = 10;
  opts.min_shard_points = 1;
  opts.database = &db;
  BouquetService service(catalog, opts);

  const double locations[][2] = {{0.05, 0.3}, {0.4, 0.1}, {0.7, 0.6}};
  std::vector<std::future<Result<ServiceResult>>> futs;
  for (const auto& loc : locations) {
    ServiceRequest req;
    req.query = form;
    BindSelectionConstants(&req.query, catalog, {loc[0], loc[1]});
    req.mode = ExecutionMode::kRealData;
    futs.push_back(service.Submit(std::move(req)));
  }
  for (auto& f : futs) {
    auto res = f.get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res->real.completed);
    EXPECT_GT(res->real.num_executions, 0);
  }
  // Different bindings of the same form share one compiled bouquet.
  EXPECT_EQ(service.stats().compilations, 1u);
  EXPECT_EQ(service.cache().size(), 1u);
}

// ----------------------------------------------------- Feedback integration

TEST(BouquetCacheTest, WarmEntriesTrackedThroughEviction) {
  BouquetCache cache(1, 1);
  auto warm = std::make_shared<CompiledBouquet>();
  warm->warm_started = true;
  cache.Put("a", std::shared_ptr<const CompiledBouquet>(std::move(warm)));
  CacheStats s = cache.stats();
  EXPECT_EQ(s.warm_inserts, 1u);
  EXPECT_EQ(s.warm_entries, 1u);
  EXPECT_EQ(s.warm_evictions, 0u);

  cache.Put("b", DummyBundle());  // LRU-evicts the warm entry
  s = cache.stats();
  EXPECT_EQ(s.warm_evictions, 1u);
  EXPECT_EQ(s.warm_entries, 0u);

  // Overwriting a cold entry with a warm one flips the live count; Clear
  // drains it.
  auto warm2 = std::make_shared<CompiledBouquet>();
  warm2->warm_started = true;
  cache.Put("b", std::shared_ptr<const CompiledBouquet>(std::move(warm2)));
  EXPECT_EQ(cache.stats().warm_entries, 1u);
  EXPECT_EQ(cache.stats().warm_inserts, 2u);
  cache.Clear();
  EXPECT_EQ(cache.stats().warm_entries, 0u);
}

// Feedback records every run and never moves a climb: with a store
// attached, each repeat of one binding returns, step for step, what a
// service without a store returns.
TEST_F(ServiceTest, FeedbackLeavesClimbsUnchanged) {
  FeedbackStore store;  // memory-only: durability is test_feedback's job
  ServiceOptions opts = FastOptions();
  BouquetService plain(catalog_, opts);
  opts.feedback = &store;
  BouquetService service(catalog_, opts);
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.9};

  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    auto want = plain.Run(req);
    auto got = service.Run(req);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const SimResult& w = want->sim;
    const SimResult& g = got->sim;
    ASSERT_TRUE(g.completed);
    EXPECT_EQ(g.fallback_used, w.fallback_used);
    EXPECT_EQ(g.total_cost, w.total_cost);
    EXPECT_EQ(g.num_executions, w.num_executions);
    EXPECT_EQ(g.final_plan, w.final_plan);
    EXPECT_EQ(g.final_contour, w.final_contour);
    ASSERT_EQ(g.steps.size(), w.steps.size());
    for (size_t k = 0; k < g.steps.size(); ++k) {
      EXPECT_EQ(g.steps[k].contour, w.steps[k].contour) << "step " << k;
      EXPECT_EQ(g.steps[k].plan_id, w.steps[k].plan_id) << "step " << k;
      EXPECT_EQ(g.steps[k].budget, w.steps[k].budget) << "step " << k;
      EXPECT_EQ(g.steps[k].charged, w.steps[k].charged) << "step " << k;
      EXPECT_EQ(g.steps[k].completed, w.steps[k].completed) << "step " << k;
      EXPECT_EQ(g.steps[k].learned_dim, w.steps[k].learned_dim)
          << "step " << k;
    }
    EXPECT_EQ(g.qrun_trace, w.qrun_trace);
  }

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.feedback_records, 4u);
  // One template, one compilation == one miss; the file-warm-start
  // counter is untouched.
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.warm_starts, 0u);
}

TEST_F(ServiceTest, FeedbackShrinksEssBoxOnFreshCompile) {
  FeedbackStore store;
  ServiceOptions opts = FastOptions();
  opts.feedback = &store;
  ServiceRequest req;
  req.query = query_;
  req.actual_selectivities = {0.3};
  long long declared_dp_calls = 0;
  {
    BouquetService first(catalog_, opts);
    for (int i = 0; i < 3; ++i) {
      auto res = first.Run(req);
      ASSERT_TRUE(res.ok());
      EXPECT_FALSE(res->compiled_bundle->shrunken_box);  // no support yet
    }
    EXPECT_EQ(first.stats().feedback_box_shrinks, 0u);
    declared_dp_calls = first.stats().posp_dp_calls;
  }

  // A fresh service sharing the store compiles the template over the
  // observed support (+ guard band) instead of the declared range.
  BouquetService second(catalog_, opts);
  auto res = second.Run(req);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_NE(res->compiled_bundle, nullptr);
  EXPECT_TRUE(res->compiled_bundle->shrunken_box);
  EXPECT_TRUE(res->sim.completed);
  const ServiceStats s = second.stats();
  EXPECT_EQ(s.feedback_box_shrinks, 1u);
  // The shrunken grid is strictly denser-per-decade but smaller overall.
  EXPECT_LT(res->compiled_bundle->grid->num_points(),
            static_cast<uint64_t>(opts.grid_resolution));
  // And it compiles with fewer optimizer DP calls than the declared range.
  EXPECT_LT(s.posp_dp_calls, declared_dp_calls);
}

// A stale shrunken box, pinned as it behaves today: the store's support
// lies near the declared minimum, so the template compiles over a small box
// there, and a binding far above the box arrives. The climb finds no
// contour point in q_run's first quadrant once q_run leaves the box, and
// its last step runs unbudgeted; the rows are still the query's. Nothing
// detects the stale box or recompiles: the next request is served by the
// same cached bundle.
TEST(ServiceRealDataTest, StaleShrunkenBoxStillReturnsTheRows) {
  Database db;
  TpchDataOptions data_opts;
  data_opts.mini_scale = 0.1;
  MakeTpchDatabase(&db, data_opts);
  Catalog catalog;
  SyncTpchCatalog(db, &catalog);
  const QuerySpec form = Make2DHQ8a(catalog);  // declared [1e-3, 1] x2

  ServiceOptions opts;
  opts.num_threads = 2;
  opts.grid_resolution = 10;
  opts.min_shard_points = 1;
  opts.database = &db;
  BouquetService declared(catalog, opts);
  FeedbackStore store;
  opts.feedback = &store;
  BouquetService shrunken(catalog, opts);
  for (uint64_t i = 0; i < kShrinkMinObservations; ++i) {
    FeedbackObservation obs;
    obs.template_hash = TemplateHash(shrunken.KeyFor(form));
    obs.selectivities = {0.002, 0.004};
    obs.final_contour = 0;
    ASSERT_TRUE(store.Record(obs).ok());
  }

  ServiceRequest req;
  req.query = form;
  BindSelectionConstants(&req.query, catalog, {0.7, 0.6});
  req.mode = ExecutionMode::kRealData;
  auto want = declared.Run(req);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(want->real.completed);
  auto got = shrunken.Run(req);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got->compiled_bundle->shrunken_box);
  const EssGrid& box = *got->compiled_bundle->grid;
  for (int d = 0; d < box.dims(); ++d) {
    ASSERT_LT(box.axis(d).back(), 0.1) << "dim " << d;
  }

  ASSERT_TRUE(got->real.completed);
  EXPECT_EQ(CanonicalRows(got->real.rows), CanonicalRows(want->real.rows));
  ASSERT_FALSE(got->real.steps.empty());
  EXPECT_EQ(got->real.steps.back().budget,
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(got->real.steps.back().completed);

  auto next = shrunken.Run(req);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(next->cache_hit);
  EXPECT_EQ(next->compiled_bundle.get(), got->compiled_bundle.get());
  EXPECT_EQ(CanonicalRows(next->real.rows), CanonicalRows(want->real.rows));
  const ServiceStats s = shrunken.stats();
  EXPECT_EQ(s.compilations, 1u);
  EXPECT_EQ(s.feedback_box_shrinks, 1u);
}

TEST_F(ServiceTest, StatsExposeWarmCacheGauges) {
  const ServiceOptions opts = FastOptions();
  const EssGrid grid(query_, {opts.grid_resolution});
  const PlanDiagram diagram =
      GeneratePosp(query_, catalog_, opts.cost_params, grid);
  QueryOptimizer opt(query_, catalog_, opts.cost_params);
  const PlanBouquet bouquet = BuildBouquet(diagram, &opt, opts.bouquet_params);
  const std::string path =
      ::testing::TempDir() + "/test_service_warm_gauge.bouquet";
  ASSERT_TRUE(SaveBouquetToFile(diagram, bouquet, path).ok());

  BouquetService service(catalog_, opts);
  ASSERT_TRUE(service.WarmStart(query_, path).ok());
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_warm_entries, 1u);
  EXPECT_EQ(s.cache_warm_evictions, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bouquet
