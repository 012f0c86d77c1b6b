// Invariant oracles: the paper's guarantees as machine-checked properties.
//
// Each oracle compiles nothing itself — CheckInvariants runs the real
// pipeline (EssGrid -> GeneratePosp -> BuildBouquet -> BouquetSimulator) on
// a generated instance and then interrogates the artifacts:
//   * pic_monotone    — Plan Cost Monotonicity of the PIC (Section 2
//                       assumption; prerequisite for everything below).
//   * contour_ratio   — the isocost ladder is geometric with the configured
//                       ratio, anchored at Cmax with IC_1/r < Cmin <= IC_1
//                       (Section 3.1), and budgets carry exactly the
//                       (1+lambda) anorexic inflation.
//   * mso_bound       — simulated MSO over every grid point stays within
//                       Theorem 3's rho*(1+lambda)*r^2/(r-1) (= 4rho(1+l)
//                       at r=2), no run falls back, no run beats the
//                       optimum; the PIC itself is differentially verified
//                       against brute-force re-optimization
//                       (robustness/BruteForceOptimalCosts).
//   * anorexic_lambda — every contour point's assigned (possibly swallowed)
//                       plan costs within (1+lambda) of that point's POSP
//                       optimum (Harish et al., VLDB 2007).
//   * roundtrip       — serialize -> deserialize -> re-execute is an
//                       identity: artifacts compare bit-exact and replayed
//                       simulations produce identical step sequences.
//   * metamorphic     — (optional) refining the grid never increases
//                       MSO-bound violations, permuting thread/chunk
//                       counts in parallel POSP compilation yields
//                       bit-identical diagrams and bouquets, and the
//                       incremental costers (DpLowerBound, PlanRecoster)
//                       return a fresh instance's bits whatever points
//                       they visited before.
//   * exec_differential — the instance's bouquet plans, materialized onto
//                       real generated data, execute bit-identically under
//                       the scalar and vectorized engines: same charged
//                       cost, same abort points across budget sweeps, same
//                       result rows and per-node counters (see
//                       testing/exec_differential.h).
//   * warm_start      — feedback warm-started runs (contour skip derived
//                       from a seed location, feedback/warm_start.h) always
//                       complete without fallback, and when the seed is
//                       dominated by q_a the run's sub-optimality stays
//                       within the same Theorem 3 bound as a cold run;
//                       mispredicted seeds (beyond q_a) must still
//                       complete, they just forfeit the bound.
//
// Mutation injection deliberately corrupts one artifact mid-pipeline so the
// harness can prove it would catch a real bug (the PR's mutation test).

#ifndef BOUQUET_TESTING_ORACLES_H_
#define BOUQUET_TESTING_ORACLES_H_

#include <cstdint>
#include <string>

#include "testing/generators.h"

namespace bouquet {

/// Deliberate pipeline corruptions for harness self-tests.
enum class FuzzMutation {
  kNone = 0,
  /// Multiplies one interior contour's step cost by 1.37, breaking the
  /// geometric ladder (caught by contour_ratio).
  kContourRatio,
  /// Multiplies the PIC at one interior grid point by 10, breaking PCM
  /// (caught by pic_monotone).
  kPicSpike,
  /// Halves every contour budget, voiding the completion guarantee (caught
  /// by mso_bound via fallbacks / bound violation).
  kBudgetDeflate,
};

const char* FuzzMutationName(FuzzMutation m);
/// Inverse of FuzzMutationName; returns false on an unknown name.
bool ParseFuzzMutation(const std::string& name, FuzzMutation* out);

struct OracleOptions {
  FuzzMutation mutation = FuzzMutation::kNone;
  /// Grid points re-optimized from scratch for the differential PIC check
  /// (sampled evenly; 0 disables).
  int differential_samples = 48;
  /// Grid points replayed through the deserialized artifacts.
  int roundtrip_replays = 4;
  /// Enables the (expensive) metamorphic rules; ignored under mutation,
  /// whose corruptions void the relations the rules rely on.
  bool metamorphic = false;
  /// Enables the batch-vs-scalar execution differential (real data
  /// materialization + budget sweeps). Skipped under mutation — the
  /// corruptions target compile-time artifacts the executor never reads,
  /// so running it there only adds cost.
  bool exec_differential = true;
  /// Per-table row cap for the materialized differential data.
  int64_t exec_differential_rows = 256;
  /// q_a points sampled (evenly) for the warm-start oracle; each is paired
  /// with dominated, exact, and mispredicted seeds. 0 disables. Skipped
  /// under mutation, whose corruptions void the ladder the clamp rests on.
  int warm_start_samples = 12;
  double tolerance = 1e-9;
};

struct OracleResult {
  bool ok = true;
  std::string detail;  ///< first violation, empty when ok
};

/// Outcome of one instance check, plus telemetry for summaries.
struct InvariantReport {
  OracleResult pic_monotone;
  OracleResult contour_ratio;
  OracleResult mso_bound;
  OracleResult anorexic_lambda;
  OracleResult roundtrip;
  OracleResult metamorphic;
  OracleResult exec_differential;
  OracleResult warm_start;

  uint64_t grid_points = 0;
  int num_contours = 0;
  int rho = 0;
  int num_plans = 0;
  double mso = 0.0;              ///< simulated (basic-algorithm) MSO
  double mso_bound_value = 0.0;  ///< Theorem 3 bound for this bouquet

  bool ok() const;
  /// "oracle_name: detail" of the first failing oracle, or "".
  std::string FirstFailure() const;
};

/// Runs the full compile+simulate pipeline on the instance and evaluates
/// every oracle.
InvariantReport CheckInvariants(const FuzzInstance& instance,
                                const OracleOptions& options = {});

}  // namespace bouquet

#endif  // BOUQUET_TESTING_ORACLES_H_
