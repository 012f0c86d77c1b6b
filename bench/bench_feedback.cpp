// Cross-query feedback: ESS-box shrinking, and the robust-baseline
// shootout (NAT / SEER / PARQO / PAO / bouquet).
//
// Two sections:
//   shrink   — compiling over the feedback-shrunken ESS box costs fewer
//              optimizer DP calls than the declared-range compile;
//   shootout — MSO / ASO / MaxHarm for the five policies on one space
//              (robustness/shootout.h).
//
// Each section's property has a ctest home: test_service for shrink
// (FeedbackShrinksEssBoxOnFreshCompile) and test_native_seer for the
// shootout.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "feedback/feedback_store.h"
#include "feedback/shrunken_box.h"
#include "robustness/shootout.h"

namespace bouquet {
namespace {

using benchutil::BuildSpace;
using benchutil::PrintHeader;

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
  fb.support.assign(static_cast<size_t>(query.NumDims()), {0.2, 0.6});
  EssBox box;
  if (!ShrunkenBox(query, fb, &box)) {
    std::fprintf(stderr, "shrink section: box did not shrink\n");
    return r;
  }
  const std::vector<int> sres = ShrunkenResolutions(query, box, res);
  const EssGrid shrunken(query, sres, box.lo, box.hi);
  r.shrunken_points = shrunken.num_points();
  PospStats shrunken_stats;
  GeneratePosp(query, catalog, CostParams::Postgres(), shrunken, {},
               &shrunken_stats);
  r.shrunken_dp_calls = shrunken_stats.dp_calls;
  r.shrunken_wall_seconds = shrunken_stats.wall_seconds;
  return r;
}

// --------------------------------------------------------------- shootout

std::vector<ShootoutRow> RunShootoutSection(int resolution) {
  auto p = BuildSpace("3D_H_Q5", resolution);
  return RunShootout(*p->diagram, p->opt.get(), *p->bouquet);
}

// ----------------------------------------------------------------- output

void PrintReports(const ShrinkReport& shrink,
                  const std::vector<ShootoutRow>& shootout) {
  std::printf("\n  -- feedback-shrunken ESS box --\n");
  std::printf("  full:     %llu points, %lld dp calls, %.3fs\n",
              static_cast<unsigned long long>(shrink.full_points),
              static_cast<long long>(shrink.full_dp_calls),
              shrink.full_wall_seconds);
  std::printf("  shrunken: %llu points, %lld dp calls, %.3fs\n",
              static_cast<unsigned long long>(shrink.shrunken_points),
              static_cast<long long>(shrink.shrunken_dp_calls),
              shrink.shrunken_wall_seconds);

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
      "Cross-query feedback: box shrinking, baseline shootout",
      "beyond-paper cross-query feedback");
  const auto shrink = bouquet::RunShrinkSection(64);
  const auto shootout = bouquet::RunShootoutSection(16);
  bouquet::PrintReports(shrink, shootout);
  return 0;
}
