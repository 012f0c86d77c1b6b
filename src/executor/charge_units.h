// The composite charge units, one function each.
//
// A charge unit that combines several cost parameters is computed here and
// nowhere else, and the operators of both engines call these functions, so
// the scalar oracle and the batch engine price the same expression by
// construction. Each function rounds its double expression once, through
// FixedFromCost (exec_context.h); the single-parameter units are
// FixedPrices. Where an operator prices materialized rows, a row is 8
// bytes per value slot.

#ifndef BOUQUET_EXECUTOR_CHARGE_UNITS_H_
#define BOUQUET_EXECUTOR_CHARGE_UNITS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "executor/exec_context.h"
#include "optimizer/plan.h"

namespace bouquet {

/// A sequential scan's charge per scanned row: in memory it amortizes the
/// table's pages over its rows; on paged storage the buffer pool prices
/// each page access as its own charge, so the row pays the CPU part only.
inline FixedCost ScanRowCharge(const CostParams& p, double row_width_bytes,
                               size_t num_filters, bool paged) {
  if (paged) {
    return FixedFromCost(p.cpu_tuple_cost + num_filters * p.cpu_operator_cost);
  }
  return FixedFromCost(p.seq_page_cost * row_width_bytes / p.page_size_bytes +
                       p.cpu_tuple_cost + num_filters * p.cpu_operator_cost);
}

/// An index descent over `rows` entries, once per index scan and once per
/// outer row of an index NL join: a random page and a binary search.
inline FixedCost IndexDescentCharge(const CostParams& p, int64_t rows) {
  return FixedFromCost(p.random_page_cost +
                       4.0 * p.cpu_operator_cost * std::log2(rows + 2.0));
}

/// An index scan's charge per match in memory: a random heap page, the
/// index and heap tuples, and the filters besides the index qual.
inline FixedCost IndexScanMatchCharge(const CostParams& p,
                                      size_t num_filters) {
  return FixedFromCost(
      p.random_page_cost + p.cpu_index_tuple_cost + p.cpu_tuple_cost +
      (num_filters > 0 ? num_filters - 1 : 0) * p.cpu_operator_cost);
}

/// IndexScanMatchCharge without the page, which paged storage prices.
inline FixedCost IndexScanMatchCpuCharge(const CostParams& p,
                                         size_t num_filters) {
  return FixedFromCost(
      p.cpu_index_tuple_cost + p.cpu_tuple_cost +
      (num_filters > 0 ? num_filters - 1 : 0) * p.cpu_operator_cost);
}

/// An index NL join's charge per inner match in memory: a random page, the
/// index tuple, and `num_quals` inner filters and residual predicates.
inline FixedCost IndexNLMatchCharge(const CostParams& p, size_t num_quals) {
  return FixedFromCost(p.random_page_cost + p.cpu_index_tuple_cost +
                       num_quals * p.cpu_operator_cost);
}

/// IndexNLMatchCharge without the page, which paged storage prices.
inline FixedCost IndexNLMatchCpuCharge(const CostParams& p,
                                       size_t num_quals) {
  return FixedFromCost(p.cpu_index_tuple_cost +
                       num_quals * p.cpu_operator_cost);
}

/// A hash join's charge per build row: a hash operation and the tuple.
inline FixedCost HashBuildCharge(const CostParams& p) {
  return FixedFromCost(p.hash_op_factor * p.cpu_operator_cost +
                       p.cpu_tuple_cost);
}

/// Whether a hash join's build side, `build_rows` rows of `row_slots`
/// values, exceeds work_mem; the cost model then prices one extra
/// write+read pass over both sides.
inline bool HashBuildSpills(const CostParams& p, int64_t build_rows,
                            size_t row_slots) {
  const double build_width = 8.0 * double(row_slots);
  return double(build_rows) * build_width > p.work_mem_bytes;
}

/// The build side's part of a spilling hash join's pass, charged once the
/// build side is drained.
inline FixedCost HashSpillCharge(const CostParams& p, int64_t build_rows,
                                 size_t row_slots) {
  const double build_width = 8.0 * double(row_slots);
  const double build_pages =
      double(build_rows) * build_width / p.page_size_bytes;
  return FixedFromCost(2.0 * p.seq_page_cost * std::max(1.0, build_pages));
}

/// A hash join's charge per probe row: a hash operation, plus the probe
/// side's share of the pass when the build side spills.
inline FixedCost HashProbeCharge(const CostParams& p, int64_t build_rows,
                                 size_t row_slots) {
  const double build_width = 8.0 * double(row_slots);
  double probe_spill_charge = 0.0;
  if (HashBuildSpills(p, build_rows, row_slots)) {
    probe_spill_charge =
        2.0 * p.seq_page_cost * build_width / p.page_size_bytes;
  }
  return FixedFromCost(p.hash_op_factor * p.cpu_operator_cost +
                       probe_spill_charge);
}

/// A merge join's sort charge, one total once both inputs are drained: the
/// SortCost of each input the plan does not mark presorted. An empty input
/// is priced one value slot wide.
inline FixedCost MergeSortCharge(const CostModel& cm, const PlanNode& node,
                                 int64_t left_rows, size_t left_slots,
                                 int64_t right_rows, size_t right_slots) {
  const double lw = 8.0 * double(left_rows == 0 ? size_t{1} : left_slots);
  const double rw = 8.0 * double(right_rows == 0 ? size_t{1} : right_slots);
  double charge = 0.0;
  if (!node.left_presorted) charge += cm.SortCost(double(left_rows), lw);
  if (!node.right_presorted) charge += cm.SortCost(double(right_rows), rw);
  return FixedFromCost(charge);
}

/// A hash aggregate's charge per input row: a hash operation and an
/// aggregate update.
inline FixedCost AggregateBuildCharge(const CostParams& p) {
  return FixedFromCost(p.hash_op_factor * p.cpu_operator_cost +
                       p.cpu_operator_cost);
}

}  // namespace bouquet

#endif  // BOUQUET_EXECUTOR_CHARGE_UNITS_H_
