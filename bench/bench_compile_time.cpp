// Section 6.1: compile-time overheads of POSP generation — exhaustive vs
// the contour-focused recursive-subdivision approach, serial vs parallel
// sharding, and memoryless vs incremental compilation (invariant-subplan
// memo + recost-first fast path), with per-template dp_calls, recost_hits,
// the incremental layers' exact work counters (bound_subsets,
// recost_nodes) and wall seconds. test_posp pins those counters exactly.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "ess/contour_generator.h"

namespace bouquet {
namespace {

using benchutil::AllSpaceNames;
using benchutil::PrintHeader;

struct TemplateReport {
  std::string name;
  uint64_t points = 0;
  PospStats incremental;
  PospStats memoryless;
};

double Speedup(const TemplateReport& r) {
  return r.incremental.wall_seconds > 0.0
             ? r.memoryless.wall_seconds / r.incremental.wall_seconds
             : 0.0;
}

TemplateReport RunTemplate(const std::string& label, const QuerySpec& query,
                           const Catalog& catalog, const EssGrid& grid,
                           ThreadPool* pool) {
  TemplateReport r;
  r.name = label;
  r.points = grid.num_points();
  PospOptions inc;
  inc.pool = pool;
  GeneratePosp(query, catalog, CostParams::Postgres(), grid, inc,
               &r.incremental);
  PospOptions memless;
  memless.pool = pool;
  memless.incremental = false;
  GeneratePosp(query, catalog, CostParams::Postgres(), grid, memless,
               &r.memoryless);
  return r;
}

void PrintTemplateTable(const std::vector<TemplateReport>& reports) {
  std::printf("\n  %-16s %-9s %-10s %-11s %-10s %-9s %-9s %-8s\n", "template",
              "points", "dp calls", "recost", "memoryless", "inc time",
              "mem time", "speedup");
  for (const TemplateReport& r : reports) {
    std::printf(
        "  %-16s %-9llu %-10lld %-11lld %-10lld %-7.2fs  %-7.2fs  %5.2fx\n",
        r.name.c_str(), static_cast<unsigned long long>(r.points),
        r.incremental.dp_calls, r.incremental.recost_hits,
        r.memoryless.dp_calls, r.incremental.wall_seconds,
        r.memoryless.wall_seconds, Speedup(r));
  }
  // Exact work of the two incremental layers (deterministic per sharding).
  std::printf("\n  %-16s %-14s %-14s\n", "template", "bound subsets",
              "recost nodes");
  for (const TemplateReport& r : reports) {
    std::printf("  %-16s %-14lld %-14lld\n", r.name.c_str(),
                r.incremental.bound_subsets, r.incremental.recost_nodes);
  }
}

// Fixed templates: stock 2D and 3D TPC-H spaces at resolution 100.
std::vector<TemplateReport> RunFixedTemplates() {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  ThreadPool pool(8);

  std::vector<TemplateReport> reports;
  {
    const QuerySpec q2d = Make2DHQ8a(tpch);
    const EssGrid grid(q2d, {100, 100});
    reports.push_back(RunTemplate("2D_H_Q8a_res100", q2d, tpch, grid, &pool));
  }
  {
    const NamedSpace space = GetSpace("3D_H_Q5", tpch, tpcds);
    const EssGrid grid(space.query, {100, 100, 100});
    reports.push_back(
        RunTemplate("3D_H_Q5_res100", space.query, tpch, grid, &pool));
  }
  return reports;
}

void PrintReproduction() {
  PrintHeader("Compile-time overheads: exhaustive vs contour-focused POSP",
              "Section 6.1");
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  std::printf("\n  %-12s %-9s %-12s %-12s %-10s %-12s %-12s\n", "space",
              "points", "exh calls", "exh time", "par time", "cntr calls",
              "cntr time");
  for (const auto& name : AllSpaceNames()) {
    const NamedSpace space = GetSpace(name, tpch, tpcds);
    const Catalog& cat = space.benchmark == "H" ? tpch : tpcds;
    const EssGrid grid = EssGrid::WithDefaultResolution(space.query);

    PospStats serial_stats;
    GeneratePosp(space.query, cat, CostParams::Postgres(), grid,
                 PospOptions{1}, &serial_stats);
    PospStats par_stats;
    GeneratePosp(space.query, cat, CostParams::Postgres(), grid,
                 PospOptions{8}, &par_stats);
    const auto t0 = std::chrono::steady_clock::now();
    const SparsePosp sparse = GenerateContourPosp(
        space.query, cat, CostParams::Postgres(), grid, 2.0);
    const double sparse_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::printf("  %-12s %-9llu %-12lld %-10.2fs  %-8.2fs  %-12lld %-10.2fs\n",
                name.c_str(),
                static_cast<unsigned long long>(grid.num_points()),
                serial_stats.dp_calls, serial_stats.wall_seconds,
                par_stats.wall_seconds, sparse.optimizer_calls, sparse_secs);
  }
  std::printf("\n  Paper's shape: contour-focused generation skips most of "
              "the space between contours;\n  parallelism brings hours down "
              "to minutes (here: everything is already seconds).\n");
}

void BM_ContourFocusedPosp3D(benchmark::State& state) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace("3D_H_Q5", tpch, tpcds);
  const EssGrid grid(space.query, {20, 20, 20});
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateContourPosp(
        space.query, tpch, CostParams::Postgres(), grid, 2.0));
  }
}
BENCHMARK(BM_ContourFocusedPosp3D)->Unit(benchmark::kMillisecond);

void BM_IncrementalPosp2D(benchmark::State& state) {
  const Catalog tpch = MakeTpchCatalog(1.0);
  const QuerySpec query = Make2DHQ8a(tpch);
  const EssGrid grid(query, {64, 64});
  PospOptions opts;
  opts.incremental = state.range(0) != 0;
  for (auto _ : state) {
    const PlanDiagram d =
        GeneratePosp(query, tpch, CostParams::Postgres(), grid, opts);
    benchmark::DoNotOptimize(d.num_plans());
  }
}
BENCHMARK(BM_IncrementalPosp2D)
    ->Arg(0)  // memoryless
    ->Arg(1)  // incremental
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bouquet

int main(int argc, char** argv) {
  bouquet::PrintReproduction();
  bouquet::PrintHeader(
      "Incremental POSP compilation: memoryless vs memo + recost fast path",
      "the Section 6.1 overheads, incremental compilation");
  bouquet::PrintTemplateTable(bouquet::RunFixedTemplates());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
