// Cross-query feedback: warm-started contour search, ESS-box shrinking,
// and the robust-baseline shootout (NAT / SEER / PARQO / PAO / bouquet).
//
// Four sections:
//   warm     — repeat traffic against a feedback-enabled service skips a
//              prefix of the contour ladder, and a warm real-data run
//              returns byte-identical rows to the cold run;
//   shrink   — compiling over the feedback-shrunken ESS box costs fewer
//              optimizer DP calls than the declared-range compile;
//   oracle   — seeded warm runs across fuzz instances: dominated seeds
//              never break the Theorem 3 MSO bound, mispredicted seeds
//              still complete (the warm_start oracle's property, counted
//              here at scale);
//   shootout — MSO / ASO / MaxHarm for the five policies on one space
//              (robustness/shootout.h).
//
// Each section's property has a ctest home: test_feedback and test_service
// for warm and shrink, test_properties' warm_start oracle, and
// test_native_seer for the shootout.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bouquet/bounds.h"
#include "bouquet/driver.h"
#include "feedback/feedback_store.h"
#include "feedback/warm_start.h"
#include "robustness/shootout.h"
#include "service/service.h"
#include "testing/generators.h"

namespace bouquet {
namespace {

using benchutil::BuildSpace;
using benchutil::PrintHeader;

// Result rows echo join columns in plan-dependent order, so cross-plan
// result equality is multiset equality over per-row value multisets.
std::vector<Row> CanonicalRows(std::vector<Row> rows) {
  for (Row& row : rows) std::sort(row.begin(), row.end());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ------------------------------------------------------------------- warm

struct WarmReport {
  uint64_t requests = 0;
  uint64_t feedback_records = 0;
  uint64_t warm_runs = 0;
  uint64_t contours_skipped = 0;
  bool rows_identical = false;
  int cold_steps = 0;
  int warm_steps = 0;
};

WarmReport RunWarmSection(int repeats, double mini_scale) {
  WarmReport r;

  // Service-level repeat traffic: one template, `repeats` identical
  // requests; once the policy's min_observations is met the ladder starts
  // above contour 0.
  {
    const Catalog catalog = MakeTpchCatalog(1.0);
    QuerySpec query = Make2DHQ8a(catalog);
    FeedbackStore store;
    ServiceOptions opts;
    opts.num_threads = 2;
    opts.grid_resolution = 20;
    opts.feedback = &store;
    BouquetService service(catalog, opts);
    ServiceRequest req;
    req.query = query;
    req.actual_selectivities = {0.7, 0.5};
    for (int i = 0; i < repeats; ++i) {
      auto res = service.Run(req);
      if (!res.ok() || !res->sim.completed) {
        std::fprintf(stderr, "warm section: request %d failed\n", i);
        return r;
      }
    }
    const ServiceStats s = service.stats();
    r.requests = s.requests;
    r.feedback_records = s.feedback_records;
    r.warm_runs = s.feedback_warm_runs;
    r.contours_skipped = s.feedback_contours_skipped;
  }

  // Driver-level equivalence on real data: the warm run must return the
  // cold run's rows byte-for-byte.
  {
    Database db;
    TpchDataOptions data_opts;
    data_opts.mini_scale = mini_scale;
    MakeTpchDatabase(&db, data_opts);
    Catalog catalog;
    SyncTpchCatalog(db, &catalog);
    QuerySpec query = Make2DHQ8a(catalog);
    BindSelectionConstants(&query, catalog, {0.337, 0.456});
    QueryOptimizer opt(query, catalog, CostParams::Postgres());
    const EssGrid grid(query, {10, 10});
    const PlanDiagram diagram =
        GeneratePosp(query, catalog, CostParams::Postgres(), grid);
    const PlanBouquet bouquet = BuildBouquet(diagram, &opt);

    BouquetDriver cold(bouquet, diagram, &opt, &db);
    const DriverResult cold_res = cold.RunOptimized();
    BouquetDriver warm(bouquet, diagram, &opt, &db);
    warm.SetWarmStart(1);
    const DriverResult warm_res = warm.RunOptimized();
    r.rows_identical =
        cold_res.completed && warm_res.completed &&
        CanonicalRows(cold_res.rows) == CanonicalRows(warm_res.rows);
    r.cold_steps = static_cast<int>(cold_res.steps.size());
    r.warm_steps = static_cast<int>(warm_res.steps.size());
  }
  return r;
}

// ----------------------------------------------------------------- shrink

struct ShrinkReport {
  uint64_t full_points = 0;
  uint64_t shrunken_points = 0;
  int64_t full_dp_calls = 0;
  int64_t shrunken_dp_calls = 0;
  double full_wall_seconds = 0.0;
  double shrunken_wall_seconds = 0.0;
};

ShrinkReport RunShrinkSection(int resolution) {
  ShrinkReport r;
  const Catalog catalog = MakeTpchCatalog(1.0);
  const QuerySpec query = Make2DHQ8a(catalog);
  const std::vector<int> res(static_cast<size_t>(query.NumDims()),
                             resolution);

  const EssGrid full(query, res);
  r.full_points = full.num_points();
  PospStats full_stats;
  GeneratePosp(query, catalog, CostParams::Postgres(), full, {}, &full_stats);
  r.full_dp_calls = full_stats.dp_calls;
  r.full_wall_seconds = full_stats.wall_seconds;

  // Feedback equivalent to repeat traffic concentrated around the paper's
  // q_a: observed support [0.2, 0.6] on both dimensions.
  TemplateFeedback fb;
  fb.observations = 16;
  fb.max_final_contour = 3;
  fb.support.assign(static_cast<size_t>(query.NumDims()), {0.2, 0.6});
  WarmStartPolicy policy;
  EssBox box;
  if (!ShrunkenBox(query, fb, policy, &box)) {
    std::fprintf(stderr, "shrink section: box did not shrink\n");
    return r;
  }
  const std::vector<int> sres =
      ShrunkenResolutions(query, box, res, policy.min_resolution);
  const EssGrid shrunken(query, sres, box.lo, box.hi);
  r.shrunken_points = shrunken.num_points();
  PospStats shrunken_stats;
  GeneratePosp(query, catalog, CostParams::Postgres(), shrunken, {},
               &shrunken_stats);
  r.shrunken_dp_calls = shrunken_stats.dp_calls;
  r.shrunken_wall_seconds = shrunken_stats.wall_seconds;
  return r;
}

// ----------------------------------------------------------------- oracle

struct OracleReport {
  int instances = 0;
  int64_t warm_runs = 0;
  int64_t mispredicted_runs = 0;
  int64_t violations = 0;
};

// The warm_start oracle's property, counted at scale: dominated seeds obey
// the Theorem 3 bound, every warm start completes without the fallback.
OracleReport RunOracleSection(int64_t min_runs) {
  OracleReport r;
  FuzzGenOptions gen;
  gen.max_tables = 4;
  gen.max_dims = 2;
  gen.max_grid_points = 600;
  for (uint64_t seed = 1; r.warm_runs + r.mispredicted_runs < min_runs;
       ++seed) {
    const FuzzInstance inst = GenerateFuzzInstance(seed, gen);
    const EssGrid grid(inst.query, inst.resolutions);
    PlanDiagram diagram = GeneratePosp(inst.query, inst.catalog,
                                       inst.cost_params, grid);
    QueryOptimizer opt(inst.query, inst.catalog, inst.cost_params);
    const PlanBouquet bouquet =
        BuildBouquet(diagram, &opt, inst.bouquet_params);
    if (bouquet.contours.empty()) continue;
    ++r.instances;
    SimOptions restart;
    restart.continue_same_plan = false;
    const BouquetSimulator sim(bouquet, diagram, &opt, restart);
    const double bound = BouquetMsoBound(bouquet);
    const uint64_t n = grid.num_points();
    const uint64_t stride = std::max<uint64_t>(1, n / 48);
    for (uint64_t qa = 0; qa < n; qa += stride) {
      GridPoint half = grid.PointAt(qa);
      for (int& c : half) c /= 2;
      for (const uint64_t s : {grid.LinearIndex(half), qa}) {
        const int start = WarmStartContour(bouquet, diagram.cost_at(s), 1);
        const SimResult run = sim.RunOptimizedWarm(qa, start);
        ++r.warm_runs;
        if (!run.completed || run.fallback_used ||
            sim.SubOpt(run, qa) > bound * (1.0 + 1e-6)) {
          ++r.violations;
        }
      }
      const int wild = WarmStartContour(bouquet, diagram.cost_at(n - 1), 0);
      const SimResult run = sim.RunOptimizedWarm(qa, wild);
      ++r.mispredicted_runs;
      if (!run.completed || run.fallback_used) ++r.violations;
    }
  }
  return r;
}

// --------------------------------------------------------------- shootout

std::vector<ShootoutRow> RunShootoutSection(int resolution) {
  auto p = BuildSpace("3D_H_Q5", resolution);
  return RunShootout(*p->diagram, p->opt.get(), *p->bouquet);
}

// ----------------------------------------------------------------- output

void PrintReports(const WarmReport& warm, const ShrinkReport& shrink,
                  const OracleReport& oracle,
                  const std::vector<ShootoutRow>& shootout) {
  std::printf("\n  -- warm-started contour search --\n");
  std::printf("  %llu requests, %llu recorded, %llu warm runs, "
              "%llu contours skipped\n",
              static_cast<unsigned long long>(warm.requests),
              static_cast<unsigned long long>(warm.feedback_records),
              static_cast<unsigned long long>(warm.warm_runs),
              static_cast<unsigned long long>(warm.contours_skipped));
  std::printf("  real-data warm run: %d -> %d steps, rows %s\n",
              warm.cold_steps, warm.warm_steps,
              warm.rows_identical ? "identical" : "DIVERGED");

  std::printf("\n  -- feedback-shrunken ESS box --\n");
  std::printf("  full:     %llu points, %lld dp calls, %.3fs\n",
              static_cast<unsigned long long>(shrink.full_points),
              static_cast<long long>(shrink.full_dp_calls),
              shrink.full_wall_seconds);
  std::printf("  shrunken: %llu points, %lld dp calls, %.3fs\n",
              static_cast<unsigned long long>(shrink.shrunken_points),
              static_cast<long long>(shrink.shrunken_dp_calls),
              shrink.shrunken_wall_seconds);

  std::printf("\n  -- warm-start MSO-bound oracle --\n");
  std::printf("  %d instances, %lld dominated + %lld mispredicted runs, "
              "%lld violations\n",
              oracle.instances, static_cast<long long>(oracle.warm_runs),
              static_cast<long long>(oracle.mispredicted_runs),
              static_cast<long long>(oracle.violations));

  std::printf("\n  -- robust-baseline shootout (3D_H_Q5) --\n");
  std::printf("  %-10s %-10s %-10s %-10s %s\n", "policy", "MSO", "ASO",
              "MaxHarm", "plans");
  for (const ShootoutRow& row : shootout) {
    std::printf("  %-10s %-10.3f %-10.3f %-10.3f %d\n", row.policy.c_str(),
                row.mso, row.aso, row.max_harm, row.plans);
  }
}

}  // namespace
}  // namespace bouquet

int main() {
  bouquet::PrintHeader(
      "Cross-query feedback: warm starts, box shrinking, baseline shootout",
      "beyond-paper cross-query feedback");
  const auto warm = bouquet::RunWarmSection(10, 0.2);
  const auto shrink = bouquet::RunShrinkSection(64);
  const auto oracle = bouquet::RunOracleSection(4000);
  const auto shootout = bouquet::RunShootoutSection(16);
  bouquet::PrintReports(warm, shrink, oracle, shootout);
  return 0;
}
