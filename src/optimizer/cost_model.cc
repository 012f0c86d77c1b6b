#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace bouquet {

CostParams CostParams::Postgres() { return CostParams{}; }

CostParams CostParams::Commercial() {
  CostParams p;
  p.seq_page_cost = 1.0;
  p.random_page_cost = 2.5;           // assumes a larger buffer pool
  p.cpu_tuple_cost = 0.02;            // heavier per-tuple overheads
  p.cpu_index_tuple_cost = 0.004;
  p.cpu_operator_cost = 0.004;
  p.work_mem_bytes = 16.0 * 1024 * 1024;
  p.hash_op_factor = 1.2;             // more aggressive hash joins
  return p;
}

double CostModel::Pages(double rows, double width) const {
  const double pages = rows * width / p_.page_size_bytes;
  return pages < 1.0 ? 1.0 : pages;
}

double CostModel::SeqScanCost(double table_rows, double width, int num_quals,
                              double out_rows) const {
  const double io = p_.seq_page_cost * Pages(table_rows, width);
  const double cpu = table_rows * (p_.cpu_tuple_cost +
                                   num_quals * p_.cpu_operator_cost);
  return io + cpu + out_rows * p_.cpu_tuple_cost;
}

double CostModel::IndexScanCost(double table_rows, double width,
                                double matched_rows, int num_residual_quals,
                                double out_rows) const {
  (void)width;
  const double descent = IndexDescentCost(table_rows);
  // Uncorrelated heap order: one random page per matched row (upper bound
  // used by the "hard-nut" configuration with indexes on every column).
  const double heap = matched_rows * p_.random_page_cost;
  const double cpu =
      matched_rows * (p_.cpu_index_tuple_cost + p_.cpu_tuple_cost +
                      num_residual_quals * p_.cpu_operator_cost);
  return descent + heap + cpu + out_rows * p_.cpu_tuple_cost;
}

double CostModel::IndexDescentCost(double table_rows) const {
  // B-tree descent: a few random pages plus comparison CPU.
  return p_.random_page_cost +
         4.0 * p_.cpu_operator_cost * std::log2(table_rows + 2.0);
}

double CostModel::IndexProbeCost(double inner_rows, double matches) const {
  const double descent = IndexDescentCost(inner_rows);
  const double heap =
      matches * (p_.random_page_cost + p_.cpu_index_tuple_cost);
  return descent + heap;
}

double CostModel::IndexNLJoinCost(const InputEst& outer,
                                  double inner_table_rows,
                                  double prefilter_matches,
                                  int num_inner_quals,
                                  double out_rows) const {
  return IndexNLJoinCostWithDescent(outer, IndexDescentCost(inner_table_rows),
                                    prefilter_matches, num_inner_quals,
                                    out_rows);
}

double CostModel::IndexNLJoinCostWithDescent(const InputEst& outer,
                                             double descent_each,
                                             double prefilter_matches,
                                             int num_inner_quals,
                                             double out_rows) const {
  const double probes = outer.rows * descent_each;
  const double heap = prefilter_matches *
                      (p_.random_page_cost + p_.cpu_index_tuple_cost +
                       num_inner_quals * p_.cpu_operator_cost);
  return outer.cost + probes + heap + out_rows * p_.cpu_tuple_cost;
}

double CostModel::MaterialNLJoinCost(const InputEst& outer,
                                     const InputEst& inner,
                                     double out_rows) const {
  const double materialize = inner.rows * p_.cpu_tuple_cost;
  const double scan_inner_per_outer = inner.rows * p_.cpu_operator_cost;
  return outer.cost + inner.cost + materialize +
         outer.rows * scan_inner_per_outer + out_rows * p_.cpu_tuple_cost;
}

double CostModel::HashJoinCost(const InputEst& outer, const InputEst& inner,
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

double CostModel::SortCost(double rows, double width) const {
  if (rows < 2.0) return p_.cpu_operator_cost;
  const double cpu = 2.0 * rows * std::log2(rows) * p_.cpu_operator_cost;
  double io = 0.0;
  if (rows * width > p_.work_mem_bytes) {
    // External merge sort: one write+read pass approximation.
    io = 3.0 * p_.seq_page_cost * Pages(rows, width);
  }
  return cpu + io;
}

double CostModel::AggregateCost(const InputEst& input,
                                double out_groups) const {
  const double hash_op = p_.hash_op_factor * p_.cpu_operator_cost;
  return input.cost + input.rows * (hash_op + p_.cpu_operator_cost) +
         out_groups * p_.cpu_tuple_cost;
}

double CostModel::MergeJoinCost(const InputEst& left, const InputEst& right,
                                double out_rows, bool left_presorted,
                                bool right_presorted) const {
  return MergeJoinCostWithSorts(
      left, right, out_rows,
      left_presorted ? 0.0 : SortCost(left.rows, left.width),
      right_presorted ? 0.0 : SortCost(right.rows, right.width));
}

double CostModel::MergeJoinCostWithSorts(const InputEst& left,
                                         const InputEst& right,
                                         double out_rows, double left_sort,
                                         double right_sort) const {
  const double sorts = left_sort + right_sort;
  const double merge = (left.rows + right.rows) * p_.cpu_operator_cost;
  return left.cost + right.cost + sorts + merge +
         out_rows * p_.cpu_tuple_cost;
}

}  // namespace bouquet
