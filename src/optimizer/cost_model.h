// PostgreSQL-style cost model.
//
// Cost formulas are deliberately close (in structure and constants) to
// PostgreSQL 8.4's costsize.c, since the paper's main experiments run on a
// modified PostgreSQL 8.4. Costs are abstract units where sequentially
// reading one page costs 1.0. A second parameterization (`Commercial()`)
// models the paper's "COM" engine: same operator algebra, different
// constants, producing a differently-shaped POSP geography (Section 6.8).
//
// All formulas are monotone non-decreasing in input cardinalities, which is
// what gives the engine the Plan Cost Monotonicity (PCM) property the bouquet
// technique assumes (Section 2); tests/optimizer assert this by sweeping.
//
// The formulas the DP, its bound and the recoster price once per join
// candidate (Pages, the four join costs with their precomputed parts) are
// defined inline below. Every call site must round each one identically:
// the POSP fast path certifies a plan only when the bound, the DP and the
// recost agree bit for bit. The library is therefore built with
// -ffp-contract=off (src/CMakeLists.txt), so no call site may fuse an
// a*b+c that another rounds twice.

#ifndef BOUQUET_OPTIMIZER_COST_MODEL_H_
#define BOUQUET_OPTIMIZER_COST_MODEL_H_

#include <string>

namespace bouquet {

/// Tunable constants of the cost model.
struct CostParams {
  double seq_page_cost = 1.0;
  double random_page_cost = 4.0;
  /// Price of a page access that hits the buffer pool (paged storage).
  /// Modeled on PostgreSQL's effective_cache_size discounting: a hit still
  /// pays a small CPU fee for the lookup but skips the disk fetch entirely.
  double buffer_hit_page_cost = 0.1;
  double cpu_tuple_cost = 0.01;
  double cpu_index_tuple_cost = 0.005;
  double cpu_operator_cost = 0.0025;
  double page_size_bytes = 8192.0;
  double work_mem_bytes = 4.0 * 1024 * 1024;
  /// Hash table build/probe cost multiplier over cpu_operator_cost.
  double hash_op_factor = 1.5;

  /// PostgreSQL 8.4 defaults.
  static CostParams Postgres();
  /// The "COM" commercial-engine configuration: cheaper random IO (bigger
  /// buffer pool assumption), pricier CPU, larger work_mem.
  static CostParams Commercial();
};

/// Intermediate-result descriptor the cost functions consume.
struct InputEst {
  double rows = 0.0;        ///< estimated output cardinality
  double cost = 0.0;        ///< total cost of producing the input
  double width = 0.0;       ///< bytes per row
};

/// Stateless cost calculator over CostParams. Cardinalities are computed by
/// the caller (enumerator / recoster); these functions price operators.
class CostModel {
 public:
  explicit CostModel(CostParams params) : p_(params) {}

  const CostParams& params() const { return p_; }

  /// Pages occupied by `rows` rows of `width` bytes.
  double Pages(double rows, double width) const;

  /// Full sequential scan applying `num_quals` predicates, emitting out_rows.
  double SeqScanCost(double table_rows, double width, int num_quals,
                     double out_rows) const;

  /// B-tree index scan: `matched_rows` rows satisfy the index qual
  /// (uncorrelated heap order => one random page per match), then
  /// `num_residual_quals` residual predicates are applied.
  double IndexScanCost(double table_rows, double width, double matched_rows,
                       int num_residual_quals, double out_rows) const;

  /// B-tree descent into an index over `table_rows` rows: the part of an
  /// index scan or probe that does not depend on how many rows match.
  double IndexDescentCost(double table_rows) const;

  /// Cost of one index probe into a table of `inner_rows` rows returning
  /// `matches` heap rows (used per outer tuple by index nested-loop join).
  double IndexProbeCost(double inner_rows, double matches) const;

  /// Index nested-loop join: outer streamed, one probe per outer row.
  /// `descent_each` = IndexDescentCost(inner_table_rows), the per-probe
  /// descent into the inner index; `prefilter_matches` = outer.rows *
  /// inner_table_rows * join_sel (heap rows fetched before residual inner
  /// filters).
  double IndexNLJoinCostWithDescent(const InputEst& outer, double descent_each,
                                    double prefilter_matches,
                                    int num_inner_quals,
                                    double out_rows) const;

  /// Naive nested-loop join with materialized inner.
  double MaterialNLJoinCost(const InputEst& outer, const InputEst& inner,
                            double out_rows) const;

  /// Hash join; inner side is the build side. Spills when the build side
  /// exceeds work_mem.
  double HashJoinCost(const InputEst& outer, const InputEst& inner,
                      double out_rows) const;

  /// Sort-merge join. Inputs flagged presorted (an interesting order from
  /// an index scan or a child merge join) skip their sort cost.
  double MergeJoinCost(const InputEst& left, const InputEst& right,
                       double out_rows, bool left_presorted = false,
                       bool right_presorted = false) const;
  /// The same formula with each side's sort cost supplied by the caller:
  /// SortCost(rows, width) for a side that sorts, 0 for a presorted one.
  /// MergeJoinCost delegates here; callers that price many merges over the
  /// same input compute its SortCost once.
  double MergeJoinCostWithSorts(const InputEst& left, const InputEst& right,
                                double out_rows, double left_sort,
                                double right_sort) const;

  /// External-sort cost for an input (counted inside MergeJoinCost; exposed
  /// for the executor's budget accounting).
  double SortCost(double rows, double width) const;

  /// Hash aggregation over `input`, emitting `out_groups` rows.
  double AggregateCost(const InputEst& input, double out_groups) const;

 private:
  CostParams p_;
};

inline double CostModel::Pages(double rows, double width) const {
  const double pages = rows * width / p_.page_size_bytes;
  return pages < 1.0 ? 1.0 : pages;
}

inline double CostModel::IndexNLJoinCostWithDescent(
    const InputEst& outer, double descent_each, double prefilter_matches,
    int num_inner_quals, double out_rows) const {
  const double probes = outer.rows * descent_each;
  const double heap = prefilter_matches *
                      (p_.random_page_cost + p_.cpu_index_tuple_cost +
                       num_inner_quals * p_.cpu_operator_cost);
  return outer.cost + probes + heap + out_rows * p_.cpu_tuple_cost;
}

inline double CostModel::MaterialNLJoinCost(const InputEst& outer,
                                            const InputEst& inner,
                                            double out_rows) const {
  const double materialize = inner.rows * p_.cpu_tuple_cost;
  const double scan_inner_per_outer = inner.rows * p_.cpu_operator_cost;
  return outer.cost + inner.cost + materialize +
         outer.rows * scan_inner_per_outer + out_rows * p_.cpu_tuple_cost;
}

inline double CostModel::HashJoinCost(const InputEst& outer,
                                      const InputEst& inner,
                                      double out_rows) const {
  const double hash_op = p_.hash_op_factor * p_.cpu_operator_cost;
  const double build = inner.rows * (hash_op + p_.cpu_tuple_cost);
  const double probe = outer.rows * hash_op;
  double spill = 0.0;
  if (inner.rows * inner.width > p_.work_mem_bytes) {
    // Multi-batch: write and re-read both sides once.
    spill = 2.0 * p_.seq_page_cost *
            (Pages(inner.rows, inner.width) + Pages(outer.rows, outer.width));
  }
  return outer.cost + inner.cost + build + probe + spill +
         out_rows * p_.cpu_tuple_cost;
}

inline double CostModel::MergeJoinCostWithSorts(const InputEst& left,
                                                const InputEst& right,
                                                double out_rows,
                                                double left_sort,
                                                double right_sort) const {
  const double sorts = left_sort + right_sort;
  const double merge = (left.rows + right.rows) * p_.cpu_operator_cost;
  return left.cost + right.cost + sorts + merge +
         out_rows * p_.cpu_tuple_cost;
}

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_COST_MODEL_H_
