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

}  // namespace bouquet
