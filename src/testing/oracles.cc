#include "testing/oracles.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bouquet/bounds.h"
#include "bouquet/serialize.h"
#include "bouquet/simulator.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "ess/pic.h"
#include "ess/posp_generator.h"
#include "optimizer/cardinality.h"
#include "optimizer/dp_bound.h"
#include "optimizer/recost.h"
#include "robustness/metrics.h"
#include "robustness/native.h"
#include "testing/exec_differential.h"

namespace bouquet {

const char* FuzzMutationName(FuzzMutation m) {
  switch (m) {
    case FuzzMutation::kNone:
      return "none";
    case FuzzMutation::kContourRatio:
      return "contour_ratio";
    case FuzzMutation::kPicSpike:
      return "pic_spike";
    case FuzzMutation::kBudgetDeflate:
      return "budget_deflate";
  }
  return "?";
}

bool ParseFuzzMutation(const std::string& name, FuzzMutation* out) {
  for (FuzzMutation m :
       {FuzzMutation::kNone, FuzzMutation::kContourRatio,
        FuzzMutation::kPicSpike, FuzzMutation::kBudgetDeflate}) {
    if (name == FuzzMutationName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

bool InvariantReport::ok() const {
  return pic_monotone.ok && contour_ratio.ok && mso_bound.ok &&
         anorexic_lambda.ok && roundtrip.ok && metamorphic.ok &&
         exec_differential.ok;
}

std::string InvariantReport::FirstFailure() const {
  if (!pic_monotone.ok) return "pic_monotone: " + pic_monotone.detail;
  if (!contour_ratio.ok) return "contour_ratio: " + contour_ratio.detail;
  if (!mso_bound.ok) return "mso_bound: " + mso_bound.detail;
  if (!anorexic_lambda.ok) return "anorexic_lambda: " + anorexic_lambda.detail;
  if (!roundtrip.ok) return "roundtrip: " + roundtrip.detail;
  if (!metamorphic.ok) return "metamorphic: " + metamorphic.detail;
  if (!exec_differential.ok) {
    return "exec_differential: " + exec_differential.detail;
  }
  return "";
}

namespace {

// Marks a result failed with the first offending detail only.
void Fail(OracleResult* r, std::string detail) {
  if (!r->ok) return;
  r->ok = false;
  r->detail = std::move(detail);
}

void ApplyDiagramMutation(PlanDiagram* diagram, FuzzMutation mutation) {
  if (mutation != FuzzMutation::kPicSpike) return;
  const uint64_t n = diagram->grid().num_points();
  if (n < 2) return;
  const uint64_t mid = n / 2;
  diagram->Set(mid, diagram->plan_at(mid), diagram->cost_at(mid) * 10.0);
}

void ApplyBouquetMutation(PlanBouquet* bouquet, FuzzMutation mutation) {
  if (bouquet->contours.empty()) return;
  if (mutation == FuzzMutation::kContourRatio) {
    BouquetContour& c = bouquet->contours[bouquet->contours.size() / 2];
    c.step_cost *= 1.37;
    c.budget *= 1.37;
  } else if (mutation == FuzzMutation::kBudgetDeflate) {
    for (auto& c : bouquet->contours) c.budget *= 0.45;
  }
}

OracleResult CheckPicMonotone(const PlanDiagram& diagram, double tol) {
  OracleResult r;
  if (!IsPicMonotone(diagram, tol)) {
    const PicViolation v = FirstPicViolation(diagram, tol);
    Fail(&r, StrPrintf("PIC not monotone: %lld violating pairs, first at "
                       "point %llu dim %d (cost %.17g > successor %.17g)",
                       CountPicViolations(diagram, tol),
                       static_cast<unsigned long long>(v.point), v.dim,
                       v.cost, v.successor_cost));
  }
  return r;
}

OracleResult CheckContourRatio(const PlanBouquet& bouquet,
                               const PlanDiagram& diagram, double tol) {
  OracleResult r;
  const auto& contours = bouquet.contours;
  if (contours.empty()) {
    Fail(&r, "bouquet has no contours");
    return r;
  }
  const double ratio = bouquet.params.ratio;
  const double cmin = diagram.Cmin();
  const double cmax = diagram.Cmax();
  if (!ApproxEqual(contours.back().step_cost, cmax, tol)) {
    Fail(&r, StrPrintf("ladder not anchored at Cmax: IC_m=%.17g Cmax=%.17g",
                       contours.back().step_cost, cmax));
  }
  if (contours.front().step_cost * (1.0 + tol) < cmin ||
      contours.front().step_cost >= cmin * ratio * (1.0 + tol)) {
    Fail(&r, StrPrintf("IC_1=%.17g outside [Cmin, Cmin*r) = [%.17g, %.17g)",
                       contours.front().step_cost, cmin, cmin * ratio));
  }
  for (size_t k = 1; k < contours.size(); ++k) {
    const double got = contours[k].step_cost / contours[k - 1].step_cost;
    if (!ApproxEqual(got, ratio, tol)) {
      Fail(&r, StrPrintf("adjacent cost ratio IC_%zu/IC_%zu = %.17g, "
                         "expected r = %g",
                         k + 1, k, got, ratio));
      break;
    }
  }
  const double inflation =
      bouquet.params.anorexic ? 1.0 + bouquet.params.lambda : 1.0;
  for (size_t k = 0; k < contours.size(); ++k) {
    if (!ApproxEqual(contours[k].budget, contours[k].step_cost * inflation,
                     tol)) {
      Fail(&r, StrPrintf("contour %zu budget %.17g != step %.17g * %g",
                         k + 1, contours[k].budget, contours[k].step_cost,
                         inflation));
      break;
    }
  }
  return r;
}

OracleResult CheckMsoBound(const FuzzInstance& inst, const EssGrid& grid,
                           const PlanDiagram& diagram,
                           const PlanBouquet& bouquet, QueryOptimizer* opt,
                           const OracleOptions& options,
                           InvariantReport* report) {
  OracleResult r;
  // Restart accounting matches the Theorem 3 analysis exactly; the default
  // continuation mode can only be cheaper (asserted below).
  SimOptions restart;
  restart.continue_same_plan = false;
  const BouquetSimulator sim(bouquet, diagram, opt, restart);
  const BouquetSimulator sim_cont(bouquet, diagram, opt);

  const double bound = BouquetMsoBound(bouquet);
  report->mso_bound_value = bound;
  const uint64_t n = grid.num_points();
  double mso = 0.0;
  for (uint64_t qa = 0; qa < n; ++qa) {
    const SimResult run = sim.RunBasic(qa);
    if (!run.completed || run.fallback_used) {
      Fail(&r, StrPrintf("basic run at point %llu %s",
                         static_cast<unsigned long long>(qa),
                         run.fallback_used ? "used the fallback"
                                           : "did not complete"));
      continue;
    }
    const double subopt = sim.SubOpt(run, qa);
    mso = std::max(mso, subopt);
    if (subopt < 1.0 - 1e-6) {
      Fail(&r, StrPrintf("impossible sub-optimality %.17g < 1 at point %llu",
                         subopt, static_cast<unsigned long long>(qa)));
    }
    if (subopt > bound * (1.0 + 1e-6)) {
      Fail(&r, StrPrintf("MSO bound violated at point %llu: SubOpt %.17g > "
                         "rho*(1+lambda)*r^2/(r-1) = %.17g",
                         static_cast<unsigned long long>(qa), subopt, bound));
    }
    // Continuation and the optimized algorithm keep the guarantee alive.
    const SimResult cont = sim_cont.RunBasic(qa);
    if (cont.total_cost > run.total_cost * (1.0 + 1e-9)) {
      Fail(&r, StrPrintf("continuation costlier than restart at point %llu "
                         "(%.17g > %.17g)",
                         static_cast<unsigned long long>(qa), cont.total_cost,
                         run.total_cost));
    }
    const SimResult opt_run = sim_cont.RunOptimized(qa);
    if (!opt_run.completed || opt_run.fallback_used) {
      Fail(&r, StrPrintf("optimized run failed at point %llu",
                         static_cast<unsigned long long>(qa)));
    } else if (sim_cont.SubOpt(opt_run, qa) < 1.0 - 1e-6) {
      Fail(&r, StrPrintf("optimized sub-optimality < 1 at point %llu",
                         static_cast<unsigned long long>(qa)));
    }
  }
  report->mso = mso;

  // Differential PIC validation: the diagram's stored optimal costs must
  // agree with a from-scratch re-optimization at sampled points.
  if (options.differential_samples > 0) {
    std::vector<uint64_t> points;
    const uint64_t stride =
        std::max<uint64_t>(1, n / static_cast<uint64_t>(
                                      options.differential_samples));
    for (uint64_t p = 0; p < n; p += stride) points.push_back(p);
    points.push_back(n - 1);
    const std::vector<double> truth = BruteForceOptimalCosts(
        inst.query, inst.catalog, inst.cost_params, grid, points);
    for (size_t i = 0; i < points.size(); ++i) {
      if (!ApproxEqual(diagram.cost_at(points[i]), truth[i],
                       options.tolerance)) {
        Fail(&r, StrPrintf("diagram PIC %.17g disagrees with brute-force "
                           "optimal %.17g at point %llu",
                           diagram.cost_at(points[i]), truth[i],
                           static_cast<unsigned long long>(points[i])));
        break;
      }
    }
  }
  return r;
}

OracleResult CheckAnorexicLambda(const EssGrid& grid,
                                 const PlanDiagram& diagram,
                                 const PlanBouquet& bouquet,
                                 QueryOptimizer* opt, double tol) {
  OracleResult r;
  const double lambda =
      bouquet.params.anorexic ? bouquet.params.lambda : 0.0;
  for (size_t k = 0; k < bouquet.contours.size(); ++k) {
    const auto& c = bouquet.contours[k];
    for (size_t i = 0; i < c.points.size(); ++i) {
      if (!bouquet.params.anorexic &&
          c.plan_at[i] != diagram.plan_at(c.points[i])) {
        Fail(&r, StrPrintf("non-anorexic bouquet reassigned point %llu",
                           static_cast<unsigned long long>(c.points[i])));
        return r;
      }
      const double cost = opt->CostPlanAt(
          *diagram.plan(c.plan_at[i]).root, grid.SelectivityAt(c.points[i]));
      const double limit = (1.0 + lambda) * diagram.cost_at(c.points[i]);
      if (cost > limit * (1.0 + tol)) {
        Fail(&r, StrPrintf("swallowed plan %d costs %.17g > (1+lambda)*PIC "
                           "= %.17g at contour %zu point %llu",
                           c.plan_at[i], cost, limit, k + 1,
                           static_cast<unsigned long long>(c.points[i])));
        return r;
      }
    }
  }
  return r;
}

// Bit-exact structural equality of two diagrams over the same-shaped grid.
bool DiagramsIdentical(const PlanDiagram& a, const PlanDiagram& b,
                       std::string* why) {
  if (a.num_plans() != b.num_plans()) {
    *why = StrPrintf("plan counts differ (%d vs %d)", a.num_plans(),
                     b.num_plans());
    return false;
  }
  for (int p = 0; p < a.num_plans(); ++p) {
    if (a.plan(p).signature != b.plan(p).signature) {
      *why = StrPrintf("plan %d signature differs", p);
      return false;
    }
  }
  for (uint64_t i = 0; i < a.grid().num_points(); ++i) {
    if (a.plan_at(i) != b.plan_at(i) || a.cost_at(i) != b.cost_at(i)) {
      *why = StrPrintf("point %llu differs (plan %d/%d cost %.17g/%.17g)",
                       static_cast<unsigned long long>(i), a.plan_at(i),
                       b.plan_at(i), a.cost_at(i), b.cost_at(i));
      return false;
    }
  }
  return true;
}

bool BouquetsIdentical(const PlanBouquet& a, const PlanBouquet& b,
                       std::string* why) {
  if (a.contours.size() != b.contours.size()) {
    *why = "contour counts differ";
    return false;
  }
  if (a.plan_ids != b.plan_ids || a.cmin != b.cmin || a.cmax != b.cmax) {
    *why = "plan union or cost anchors differ";
    return false;
  }
  for (size_t k = 0; k < a.contours.size(); ++k) {
    const auto& ca = a.contours[k];
    const auto& cb = b.contours[k];
    if (ca.step_cost != cb.step_cost || ca.budget != cb.budget ||
        ca.points != cb.points || ca.plan_at != cb.plan_at ||
        ca.plan_ids != cb.plan_ids) {
      *why = StrPrintf("contour %zu differs", k + 1);
      return false;
    }
  }
  return true;
}

bool SimResultsIdentical(const SimResult& a, const SimResult& b) {
  if (a.completed != b.completed || a.fallback_used != b.fallback_used ||
      a.total_cost != b.total_cost || a.num_executions != b.num_executions ||
      a.final_plan != b.final_plan || a.final_contour != b.final_contour ||
      a.steps.size() != b.steps.size()) {
    return false;
  }
  for (size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].plan_id != b.steps[i].plan_id ||
        a.steps[i].budget != b.steps[i].budget ||
        a.steps[i].charged != b.steps[i].charged ||
        a.steps[i].completed != b.steps[i].completed) {
      return false;
    }
  }
  return true;
}

OracleResult CheckRoundTrip(const FuzzInstance& inst, const EssGrid& grid,
                            const PlanDiagram& diagram,
                            const PlanBouquet& bouquet, QueryOptimizer* opt,
                            int replays) {
  OracleResult r;
  std::stringstream stream;
  const Status saved = SaveBouquet(diagram, bouquet, stream);
  if (!saved.ok()) {
    Fail(&r, "save failed: " + saved.ToString());
    return r;
  }
  Result<LoadedBouquet> loaded = LoadBouquet(inst.query, stream);
  if (!loaded.ok()) {
    Fail(&r, "load failed: " + loaded.status().ToString());
    return r;
  }
  // Grid geometry restores exactly (hex float encoding).
  if (loaded->grid->num_points() != grid.num_points() ||
      loaded->grid->dims() != grid.dims()) {
    Fail(&r, "grid shape changed across the round trip");
    return r;
  }
  for (int d = 0; d < grid.dims(); ++d) {
    if (loaded->grid->axis(d) != grid.axis(d)) {
      Fail(&r, StrPrintf("axis %d values changed across the round trip", d));
      return r;
    }
  }
  std::string why;
  if (!DiagramsIdentical(diagram, *loaded->diagram, &why)) {
    Fail(&r, "diagram not restored: " + why);
    return r;
  }
  if (!BouquetsIdentical(bouquet, *loaded->bouquet, &why)) {
    Fail(&r, "bouquet not restored: " + why);
    return r;
  }
  // Re-execution identity: simulations over the loaded artifacts replay
  // the exact step sequences of the originals.
  const BouquetSimulator sim(bouquet, diagram, opt);
  QueryOptimizer opt2(inst.query, inst.catalog, inst.cost_params);
  const BouquetSimulator sim2(*loaded->bouquet, *loaded->diagram, &opt2);
  const uint64_t n = grid.num_points();
  const uint64_t stride =
      std::max<uint64_t>(1, n / std::max(1, replays));
  for (uint64_t qa = 0; qa < n; qa += stride) {
    if (!SimResultsIdentical(sim.RunBasic(qa), sim2.RunBasic(qa)) ||
        !SimResultsIdentical(sim.RunOptimized(qa), sim2.RunOptimized(qa))) {
      Fail(&r, StrPrintf("replay diverged at point %llu after the round trip",
                         static_cast<unsigned long long>(qa)));
      return r;
    }
  }
  return r;
}

// Rule 1c of CheckMetamorphic. Visits up to 256 seeded points, each one
// twice in a row half the time.
bool CheckCostersHistoryIndependent(const FuzzInstance& inst,
                                    const EssGrid& grid,
                                    const PlanDiagram& diagram,
                                    std::string* why) {
  const CostModel cm(inst.cost_params);
  const CardinalityContext card(inst.query, inst.catalog);
  SelectivityResolver sel(inst.query, inst.catalog);
  std::unique_ptr<DpLowerBound> bound;
  if (DpLowerBound::Supports(inst.query, inst.catalog)) {
    bound = std::make_unique<DpLowerBound>(inst.query, inst.catalog, cm);
  }
  // The recosters read one row table over the plans' join subsets, as the
  // simulator's do.
  std::vector<uint64_t> join_subsets;
  for (int p = 0; p < diagram.num_plans(); ++p) {
    AppendJoinSubsets(*diagram.plan(p).root, &join_subsets);
  }
  SubsetRowTable rows(card, join_subsets);
  std::vector<PlanRecoster> recosters;
  for (int p = 0; p < diagram.num_plans(); ++p) {
    recosters.emplace_back(diagram.plan(p).root, cm, card, rows);
  }
  Rng rng(inst.seed ^ 0x4157A7E5ULL);
  const uint64_t n = grid.num_points();
  const uint64_t visits = std::min<uint64_t>(2 * n, 256);
  uint64_t i = 0;
  DimVector sels;
  for (uint64_t k = 0; k < visits; ++k) {
    if (k == 0 || rng.NextBool(0.5)) i = rng.NextUint64(n);
    grid.SelectivityAt(i, &sels);
    if (bound != nullptr) {
      bool amb = false;
      const double lb = bound->BoundAt(sels, &amb);
      DpLowerBound fresh(inst.query, inst.catalog, cm);
      bool fresh_amb = false;
      const double fresh_lb = fresh.BoundAt(sels, &fresh_amb);
      if (std::bit_cast<uint64_t>(lb) != std::bit_cast<uint64_t>(fresh_lb) ||
          amb != fresh_amb) {
        *why = StrPrintf("DP bound at point %llu: %a (ambiguous %d) after "
                         "%llu calls, %a (%d) fresh",
                         static_cast<unsigned long long>(i), lb, amb ? 1 : 0,
                         static_cast<unsigned long long>(k), fresh_lb,
                         fresh_amb ? 1 : 0);
        return false;
      }
    }
    sel.Inject(sels);
    rows.Refresh(sel);
    SubsetRowTable fresh_rows(card, join_subsets);
    fresh_rows.Refresh(sel);
    for (int p = 0; p < diagram.num_plans(); ++p) {
      const double c = recosters[p].CostAt(sel);
      PlanRecoster fresh(diagram.plan(p).root, cm, card, fresh_rows);
      const double fresh_c = fresh.CostAt(sel);
      if (std::bit_cast<uint64_t>(c) != std::bit_cast<uint64_t>(fresh_c)) {
        *why = StrPrintf("plan %d recost at point %llu: %a after %llu "
                         "calls, %a fresh",
                         p, static_cast<unsigned long long>(i), c,
                         static_cast<unsigned long long>(k), fresh_c);
        return false;
      }
    }
  }
  return true;
}

OracleResult CheckMetamorphic(const FuzzInstance& inst, const EssGrid& grid,
                              const PlanDiagram& diagram,
                              const PlanBouquet& bouquet,
                              const OracleOptions& options) {
  OracleResult r;
  std::string why;

  // Rule 1: permuting thread/chunk counts in parallel POSP compilation
  // yields bit-identical diagrams and bouquets (PR 1's identity assertion,
  // generalized to random instances).
  {
    PospOptions threads;
    threads.num_threads = 3;
    threads.min_shard_points = 1;
    const PlanDiagram d_threads = GeneratePosp(
        inst.query, inst.catalog, inst.cost_params, grid, threads);
    if (!DiagramsIdentical(diagram, d_threads, &why)) {
      Fail(&r, "3-thread POSP diverged from serial: " + why);
      return r;
    }
    ThreadPool pool(2);
    PospOptions pooled;
    pooled.pool = &pool;
    pooled.min_shard_points = 1;
    const PlanDiagram d_pool = GeneratePosp(
        inst.query, inst.catalog, inst.cost_params, grid, pooled);
    if (!DiagramsIdentical(diagram, d_pool, &why)) {
      Fail(&r, "pooled POSP diverged from serial: " + why);
      return r;
    }
    // Rule 1b: the incremental fast path is invisible in the output — a
    // memoryless run (one full DP per point, no memo, no recost skips)
    // produces a byte-identical diagram, and a high-rate differential audit
    // of the skipped points finds no disagreement.
    PospOptions memoryless;
    memoryless.incremental = false;
    PospStats memoryless_stats;
    const PlanDiagram d_memoryless =
        GeneratePosp(inst.query, inst.catalog, inst.cost_params, grid,
                     memoryless, &memoryless_stats);
    if (!DiagramsIdentical(diagram, d_memoryless, &why)) {
      Fail(&r, "memoryless POSP diverged from incremental: " + why);
      return r;
    }
    PospOptions audited;
    audited.audit_fraction = 0.25;
    PospStats audited_stats;
    const PlanDiagram d_audited =
        GeneratePosp(inst.query, inst.catalog, inst.cost_params, grid,
                     audited, &audited_stats);
    if (!DiagramsIdentical(diagram, d_audited, &why)) {
      Fail(&r, "audited incremental POSP diverged: " + why);
      return r;
    }
    if (audited_stats.audit_failures != 0) {
      Fail(&r, StrPrintf("differential audit caught %lld fast-path "
                         "disagreements",
                         audited_stats.audit_failures));
      return r;
    }
    if (audited_stats.dp_calls + audited_stats.recost_hits !=
            static_cast<long long>(grid.num_points()) ||
        memoryless_stats.dp_calls !=
            static_cast<long long>(grid.num_points())) {
      Fail(&r, "POSP point accounting broken (dp_calls + recost_hits != "
               "points)");
      return r;
    }
    // Rule 1c: the incremental costers are history-independent — a
    // long-lived DpLowerBound and per-plan PlanRecosters, driven through
    // seeded points that jump and revisit, return the same bits as fresh
    // instances at every point.
    if (!CheckCostersHistoryIndependent(inst, grid, diagram, &why)) {
      Fail(&r, "incremental coster depends on its history: " + why);
      return r;
    }

    QueryOptimizer opt_threads(inst.query, inst.catalog, inst.cost_params);
    QueryOptimizer opt_pool(inst.query, inst.catalog, inst.cost_params);
    const PlanBouquet b_threads =
        BuildBouquet(d_threads, &opt_threads, inst.bouquet_params);
    const PlanBouquet b_pool =
        BuildBouquet(d_pool, &opt_pool, inst.bouquet_params);
    if (!BouquetsIdentical(bouquet, b_threads, &why) ||
        !BouquetsIdentical(bouquet, b_pool, &why)) {
      Fail(&r, "bouquet not invariant to POSP sharding: " + why);
      return r;
    }
  }

  // Rule 2: refining the grid never increases MSO-bound violations (both
  // counts are expected to be zero; the relation is what must hold).
  {
    auto count_violations = [&](const EssGrid& g, const PlanDiagram& d,
                                const PlanBouquet& b,
                                QueryOptimizer* o) -> long long {
      SimOptions restart;
      restart.continue_same_plan = false;
      const BouquetSimulator sim(b, d, o, restart);
      const double bound = BouquetMsoBound(b);
      long long violations = 0;
      for (uint64_t qa = 0; qa < g.num_points(); ++qa) {
        const SimResult run = sim.RunBasic(qa);
        if (!run.completed || run.fallback_used ||
            sim.SubOpt(run, qa) > bound * (1.0 + 1e-6)) {
          ++violations;
        }
      }
      return violations;
    };
    QueryOptimizer opt_coarse(inst.query, inst.catalog, inst.cost_params);
    const long long coarse =
        count_violations(grid, diagram, bouquet, &opt_coarse);

    std::vector<int> fine_res = inst.resolutions;
    for (int& res : fine_res) res *= 2;
    const EssGrid fine_grid(inst.query, fine_res);
    const PlanDiagram fine_diagram = GeneratePosp(
        inst.query, inst.catalog, inst.cost_params, fine_grid);
    QueryOptimizer opt_fine(inst.query, inst.catalog, inst.cost_params);
    const PlanBouquet fine_bouquet =
        BuildBouquet(fine_diagram, &opt_fine, inst.bouquet_params);
    const long long fine =
        count_violations(fine_grid, fine_diagram, fine_bouquet, &opt_fine);
    if (fine > coarse) {
      Fail(&r, StrPrintf("grid refinement increased MSO-bound violations "
                         "(%lld -> %lld)",
                         coarse, fine));
      return r;
    }
  }
  (void)options;
  return r;
}

}  // namespace

InvariantReport CheckInvariants(const FuzzInstance& instance,
                                const OracleOptions& options) {
  const EssGrid grid(instance.query, instance.resolutions);
  PlanDiagram diagram = GeneratePosp(instance.query, instance.catalog,
                                     instance.cost_params, grid);
  ApplyDiagramMutation(&diagram, options.mutation);
  QueryOptimizer opt(instance.query, instance.catalog, instance.cost_params);
  PlanBouquet bouquet = BuildBouquet(diagram, &opt, instance.bouquet_params);
  ApplyBouquetMutation(&bouquet, options.mutation);

  InvariantReport report;
  report.grid_points = grid.num_points();
  report.num_contours = static_cast<int>(bouquet.contours.size());
  report.rho = bouquet.rho();
  report.num_plans = diagram.num_plans();

  report.pic_monotone = CheckPicMonotone(diagram, options.tolerance);
  report.contour_ratio = CheckContourRatio(bouquet, diagram,
                                           options.tolerance);
  report.mso_bound =
      CheckMsoBound(instance, grid, diagram, bouquet, &opt, options, &report);
  report.anorexic_lambda = CheckAnorexicLambda(grid, diagram, bouquet, &opt,
                                               options.tolerance);
  report.roundtrip = CheckRoundTrip(instance, grid, diagram, bouquet, &opt,
                                    options.roundtrip_replays);
  if (options.metamorphic && options.mutation == FuzzMutation::kNone) {
    report.metamorphic =
        CheckMetamorphic(instance, grid, diagram, bouquet, options);
  }
  if (options.exec_differential && options.mutation == FuzzMutation::kNone) {
    ExecDifferentialOptions exec_opts;
    exec_opts.max_rows_per_table = options.exec_differential_rows;
    const ExecDiffResult diff = CheckExecDifferential(instance, exec_opts);
    report.exec_differential.ok = diff.ok;
    report.exec_differential.detail = diff.detail;
  }
  return report;
}

}  // namespace bouquet
