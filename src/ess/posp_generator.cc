#include "ess/posp_generator.h"

#include "common/lint.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "optimizer/cardinality.h"
#include "optimizer/dp_bound.h"
#include "optimizer/optimizer.h"
#include "optimizer/recost.h"
#include "optimizer/selectivity.h"

namespace bouquet {

namespace {

// Wall-clock telemetry only: feeds PospStats::wall_seconds, never the plan
// diagram, cost derivations, or the audit sampling (which is seeded).
BOUQUET_NONDETERMINISM_OK std::chrono::steady_clock::time_point WallNow() {
  return std::chrono::steady_clock::now();
}

// SplitMix64: deterministic, shard-independent audit sampling keyed only by
// (seed, linear point index).
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

bool AuditSampled(uint64_t seed, uint64_t point, double fraction) {
  if (fraction <= 0.0) return false;
  const uint64_t h = Mix64(seed ^ (point * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < fraction;
}

struct ShardResult {
  // Per point in the shard: signature id into local_plans + cost.
  std::vector<int> local_plan;
  std::vector<double> cost;
  std::vector<Plan> local_plans;
  std::unordered_map<std::string, int> sig_to_local;
  long long dp_calls = 0;
  long long recost_hits = 0;
  long long memo_hits = 0;
  long long audit_checks = 0;
  long long audit_failures = 0;
  long long bound_subsets = 0;
  long long recost_nodes = 0;
};

// `fast_path`: run the recost-first fast path (PospOptions::incremental on
// a query DpLowerBound supports); otherwise one full DP per point.
void RunShard(const QuerySpec& query, const Catalog& catalog,
              CostParams params, const EssGrid& grid,
              const PospOptions& options, bool fast_path, uint64_t begin,
              uint64_t end, ShardResult* out) {
  QueryOptimizer opt(query, catalog, params);
  std::unique_ptr<DpLowerBound> bound;
  if (fast_path) {
    bound = std::make_unique<DpLowerBound>(query, catalog, CostModel(params));
  }
  // The fast path's recosts: one incremental recoster per interned plan,
  // over a shard-local resolver injected once per point. Their join rows
  // come from the bound's row table, current once BoundAt has run at the
  // point.
  const CardinalityContext card(query, catalog);
  SelectivityResolver sel(query, catalog);
  std::vector<PlanRecoster> recosters;

  out->local_plan.resize(end - begin);
  out->cost.resize(end - begin);

  auto intern_local = [&](const Plan& plan) {
    auto it = out->sig_to_local.find(plan.signature);
    if (it != out->sig_to_local.end()) return it->second;
    const int id = static_cast<int>(out->local_plans.size());
    out->local_plans.push_back(plan);
    out->sig_to_local.emplace(plan.signature, id);
    return id;
  };

  // Candidate order: the previous point's winner, then the winners one
  // step back on each axis, then every other plan, newest first (ids follow
  // first discovery along the walk, so a newer plan was found nearer).
  // tried[p] == i marks plan p as already recosted at point i.
  int last_hit = 0;
  std::vector<uint64_t> tried;
  std::vector<int> coords(grid.dims());

  DimVector sels;
  for (uint64_t i = begin; i < end; ++i) {
    grid.SelectivityAt(i, &sels);
    int id = -1;
    double cost = 0.0;

    if (bound != nullptr && !out->local_plans.empty()) {
      // Fast path: certify a known plan optimal without running the DP.
      // bound <= optimal <= recost(P) holds for every plan P, so
      // recost(P) <= bound forces all three equal bit-for-bit; P is *the*
      // plan the DP would emit when, in addition, each of its subset
      // entries is tight and untied in the bound (DpLowerBound::TightAt;
      // see the header). Exact-cost ties, which the DP breaks by
      // enumeration order, mark the bound ambiguous and the point takes
      // the full DP. Plan choice is piecewise-constant over the grid, so
      // the previous point's winner almost always hits on the first
      // recost. When it does not (a region boundary, or the start of a new
      // row), the plan of the point one step back on another axis usually
      // does.
      bool ambiguous = false;
      const double lb = bound->BoundAt(sels, &ambiguous);
      if (!ambiguous && std::isfinite(lb)) {
        const size_t k = out->local_plans.size();
        while (recosters.size() < k) {
          recosters.emplace_back(out->local_plans[recosters.size()].root,
                                 opt.cost_model(), card,
                                 bound->subset_rows());
        }
        tried.resize(k, end);
        sel.Inject(sels);
        auto certifies = [&](int p) {
          if (tried[p] == i) return false;
          tried[p] = i;
          const double c = recosters[p].CostAt(sel);
          if (c > lb || !recosters[p].AllEntries([&](uint64_t m, double v) {
                return bound->TightAt(m, v);
              })) {
            return false;
          }
          id = p;
          cost = c;
          return true;
        };
        if (!certifies(last_hit)) {
          // Nearest first: the last axis varies fastest.
          grid.PointAt(i, coords.data());
          for (int d = grid.dims() - 1; d >= 0 && id < 0; --d) {
            if (coords[d] == 0) continue;
            const uint64_t back = grid.LinearWithDim(i, d, coords[d] - 1);
            if (back >= begin) certifies(out->local_plan[back - begin]);
          }
          for (size_t p = k; p-- > 0 && id < 0;) {
            certifies(static_cast<int>(p));
          }
        }
      }
      if (id >= 0) {
        ++out->recost_hits;
        if (AuditSampled(options.audit_seed, i, options.audit_fraction)) {
          ++out->audit_checks;
          const Plan ref = opt.OptimizeAt(sels);
          if (ref.signature != out->local_plans[id].signature ||
              ref.cost != cost) {
            ++out->audit_failures;
            // Correctness over speed: emit the DP's own answer.
            id = intern_local(ref);
            cost = ref.cost;
          }
        }
      }
    }

    if (id < 0) {
      const Plan plan = opt.OptimizeAt(sels);
      ++out->dp_calls;
      id = intern_local(plan);
      cost = plan.cost;
    }
    out->local_plan[i - begin] = id;
    out->cost[i - begin] = cost;
    last_hit = id;
  }
  out->memo_hits = opt.memo_hits();
  if (bound != nullptr) out->bound_subsets = bound->subsets_computed();
  for (const PlanRecoster& r : recosters) {
    out->recost_nodes += r.nodes_computed();
  }
}

// Interns shard results into the diagram in linear-shard order. Because a
// plan's global id becomes "first shard containing it, first point within
// that shard" — exactly its first occurrence in linear grid order — the
// merged diagram is identical to a serial run regardless of chunking. (The
// fast path preserves this: skipped points only reuse plans the shard's DP
// already materialized, so local_plans order stays first-occurrence order.)
void MergeShards(const std::vector<ShardResult>& results, uint64_t chunk,
                 PlanDiagram* diagram, PospStats* agg) {
  for (size_t t = 0; t < results.size(); ++t) {
    const uint64_t begin = chunk * t;
    const ShardResult& r = results[t];
    std::vector<int> local_to_global(r.local_plans.size());
    for (size_t p = 0; p < r.local_plans.size(); ++p) {
      local_to_global[p] = diagram->InternPlan(r.local_plans[p]);
    }
    for (size_t i = 0; i < r.local_plan.size(); ++i) {
      diagram->Set(begin + i, local_to_global[r.local_plan[i]], r.cost[i]);
    }
    agg->dp_calls += r.dp_calls;
    agg->recost_hits += r.recost_hits;
    agg->memo_hits += r.memo_hits;
    agg->audit_checks += r.audit_checks;
    agg->audit_failures += r.audit_failures;
    agg->bound_subsets += r.bound_subsets;
    agg->recost_nodes += r.recost_nodes;
  }
  agg->shards += static_cast<long long>(results.size());
}

}  // namespace

PlanDiagram GeneratePosp(const QuerySpec& query, const Catalog& catalog,
                         CostParams params, const EssGrid& grid,
                         const PospOptions& options, PospStats* stats) {
  const auto t0 = WallNow();
  const uint64_t n = grid.num_points();

  PlanDiagram diagram(&grid);
  PospStats agg;
  const bool fast_path =
      options.incremental && DpLowerBound::Supports(query, catalog);

  if (options.pool != nullptr && n >= options.min_shard_points && n > 1) {
    // Pool-backed sharding: enough chunks for load balance, but never a
    // shard smaller than min_shard_points — the tail is folded into the
    // last shard instead of becoming its own (a single-point tail would pay
    // a full per-shard optimizer construction for one DP call).
    const uint64_t max_shards = std::max<uint64_t>(
        2 * (static_cast<uint64_t>(options.pool->size()) + 1),
        static_cast<uint64_t>(std::max(1, options.num_threads)));
    const uint64_t min_chunk =
        std::max<uint64_t>(1, options.min_shard_points);
    const uint64_t shards =
        std::min(max_shards, std::max<uint64_t>(1, n / min_chunk));
    const uint64_t chunk = n / shards;
    std::vector<ShardResult> results(shards);
    options.pool->ParallelFor(0, shards, 1, [&](uint64_t sb, uint64_t se) {
      for (uint64_t s = sb; s < se; ++s) {
        const uint64_t begin = chunk * s;
        const uint64_t end = (s + 1 == shards) ? n : begin + chunk;
        RunShard(query, catalog, params, grid, options, fast_path, begin,
                 end, &results[s]);
      }
    });
    MergeShards(results, chunk, &diagram, &agg);
  } else if (options.pool == nullptr && options.num_threads > 1 &&
             n >= options.min_shard_points) {
    const int threads =
        std::min<int>(options.num_threads,
                      static_cast<int>(std::min<uint64_t>(n, 64)));
    std::vector<ShardResult> results(threads);
    std::vector<std::thread> workers;
    const uint64_t chunk = (n + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
      const uint64_t begin = chunk * t;
      const uint64_t end = std::min(n, begin + chunk);
      if (begin >= end) break;
      workers.emplace_back(RunShard, std::cref(query), std::cref(catalog),
                           params, std::cref(grid), std::cref(options),
                           fast_path, begin, end, &results[t]);
    }
    for (auto& w : workers) w.join();
    results.resize(workers.size());
    MergeShards(results, chunk, &diagram, &agg);
  } else {
    // Serial: one shard spanning the whole grid (the fast path sees the
    // longest possible prefix of known plans).
    std::vector<ShardResult> results(1);
    RunShard(query, catalog, params, grid, options, fast_path, 0, n,
             &results[0]);
    MergeShards(results, n, &diagram, &agg);
  }

  if (stats != nullptr) {
    *stats = agg;
    stats->wall_seconds =
        std::chrono::duration<double>(WallNow() - t0)
            .count();
  }
  return diagram;
}

}  // namespace bouquet
