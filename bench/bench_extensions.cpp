// Extensions study: the three "future work" items of Section 8, implemented
// and measured — (a) incremental bouquet maintenance under database
// scale-up, (b) weak-dimension elimination, (c) underestimate-seeded
// execution.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "bouquet/maintenance.h"
#include "ess/dim_analysis.h"

namespace bouquet {
namespace {

using benchutil::BuildSpace;
using benchutil::PrintHeader;

void PrintMaintenance() {
  std::printf("\n-- (a) Incremental maintenance under database scale-up --\n");
  std::printf("  %-8s %-12s %-12s %-10s %-12s %-12s\n", "growth",
              "fresh calls", "maint calls", "adopted", "worst-dev",
              "speedup");
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  for (double growth : {1.5, 2.0, 4.0, 8.0}) {
    const Catalog old_cat = MakeTpchCatalog(1.0);
    const Catalog new_cat = MakeTpchCatalog(growth);
    const NamedSpace space = GetSpace("4D_H_Q8", old_cat, tpcds);
    const EssGrid grid = EssGrid::WithDefaultResolution(space.query);
    const PlanDiagram old_diag = GeneratePosp(
        space.query, old_cat, CostParams::Postgres(), grid);

    const auto t0 = std::chrono::steady_clock::now();
    PospStats fresh_stats;
    GeneratePosp(space.query, new_cat, CostParams::Postgres(), grid,
                 PospOptions{}, &fresh_stats);
    const auto t1 = std::chrono::steady_clock::now();
    MaintenanceStats stats;
    MaintainDiagram(old_diag, space.query, new_cat, CostParams::Postgres(),
                    16, &stats);
    const auto t2 = std::chrono::steady_clock::now();
    const double fresh_secs = std::chrono::duration<double>(t1 - t0).count();
    const double maint_secs = std::chrono::duration<double>(t2 - t1).count();
    std::printf("  %-8.1f %-12lld %-12lld %-10d %-12.3f %.1fx\n", growth,
                fresh_stats.dp_calls, stats.optimizer_calls,
                stats.new_plans_adopted, stats.worst_validation_ratio,
                fresh_secs / maint_secs);
  }
}

void PrintDimElimination() {
  std::printf("\n-- (b) Weak-dimension elimination --\n");
  const Catalog tpch = MakeTpchCatalog(1.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  std::printf("  %-12s %-40s\n", "space", "max relative cost impact per dim");
  for (const char* name : {"3D_H_Q5", "5D_H_Q7", "5D_DS_Q19"}) {
    const NamedSpace space = GetSpace(name, tpch, tpcds);
    const Catalog& cat = space.benchmark == "H" ? tpch : tpcds;
    const auto sens =
        MeasureDimSensitivity(space.query, cat, CostParams::Postgres());
    std::printf("  %-12s ", name);
    for (const auto& s : sens) std::printf("%.2g  ", s.max_relative_impact);
    std::printf("\n");
  }
  const NamedSpace q7 = GetSpace("5D_H_Q7", tpch, tpcds);
  std::vector<int> removed;
  const QuerySpec reduced = EliminateWeakDimensions(
      q7.query, tpch, CostParams::Postgres(), /*threshold=*/1.0, &removed);
  std::printf("  5D_H_Q7 at threshold 1.0: %d dims kept, %zu eliminated -> "
              "grid shrinks %llux\n",
              reduced.NumDims(), removed.size(),
              static_cast<unsigned long long>(
                  1ULL << (3 * removed.size())));  // 8 points/dim default
}

void PrintSeeding() {
  std::printf("\n-- (c) Underestimate-seeded execution --\n");
  auto p = BuildSpace("5D_DS_Q19");
  BouquetSimulator sim(*p->bouquet, *p->diagram, p->opt.get());
  const EssGrid& grid = *p->grid;
  std::printf("  %-22s %-12s %-12s\n", "strategy", "avg execs", "ASO");
  double execs_un = 0, aso_un = 0, execs_half = 0, aso_half = 0,
         execs_full = 0, aso_full = 0;
  uint64_t count = 0;
  for (uint64_t qa = 0; qa < grid.num_points(); qa += 3) {
    const GridPoint qa_pt = grid.PointAt(qa);
    GridPoint half(qa_pt.size());
    for (size_t d = 0; d < half.size(); ++d) half[d] = qa_pt[d] / 2;
    const SimResult un = sim.RunOptimized(qa);
    const SimResult sh = sim.RunOptimizedSeeded(qa, half);
    const SimResult sf = sim.RunOptimizedSeeded(qa, qa_pt);
    execs_un += un.num_executions;
    aso_un += sim.SubOpt(un, qa);
    execs_half += sh.num_executions;
    aso_half += sim.SubOpt(sh, qa);
    execs_full += sf.num_executions;
    aso_full += sim.SubOpt(sf, qa);
    ++count;
  }
  std::printf("  %-22s %-12.2f %-12.2f\n", "origin (paper)",
              execs_un / count, aso_un / count);
  std::printf("  %-22s %-12.2f %-12.2f\n", "half-way underestimate",
              execs_half / count, aso_half / count);
  std::printf("  %-22s %-12.2f %-12.2f\n", "exact estimate",
              execs_full / count, aso_full / count);
  std::printf("  The better the (guaranteed-under) estimate, the cheaper "
              "the discovery; the guarantee never degrades.\n");
}

void PrintReproduction() {
  PrintHeader("Extensions: maintenance, dimension elimination, seeding",
              "Section 8 (future work items, implemented)");
  PrintMaintenance();
  PrintDimElimination();
  PrintSeeding();
}

void BM_MaintainDiagram(benchmark::State& state) {
  const Catalog old_cat = MakeTpchCatalog(1.0);
  const Catalog new_cat = MakeTpchCatalog(2.0);
  const Catalog tpcds = MakeTpcdsCatalog(100.0);
  const NamedSpace space = GetSpace("3D_H_Q5", old_cat, tpcds);
  const EssGrid grid(space.query, {12, 12, 12});
  const PlanDiagram old_diag =
      GeneratePosp(space.query, old_cat, CostParams::Postgres(), grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaintainDiagram(
        old_diag, space.query, new_cat, CostParams::Postgres(), 16));
  }
}
BENCHMARK(BM_MaintainDiagram)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bouquet

int main(int argc, char** argv) {
  bouquet::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
