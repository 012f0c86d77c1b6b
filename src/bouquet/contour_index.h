// Compile-time contour index for the run-time climbs (Sections 5.1-5.2).
//
// Every step of an optimized climb scans the current contour's points: a
// plan stays a candidate while one of its points lies in the first quadrant
// of q_run, and AxisPlans prefers plans with a point on an axis through
// q_run. The points are stored as linear grid indexes, and decoding one into
// coordinates costs a division per dimension (plus, through
// EssGrid::PointAt, a heap allocation), which a scan would pay on every step
// of every run. Like the PIC and the cost surfaces, the coordinates depend
// only on the compiled bouquet, so they are derived once here, together with
// each plan's error-node depth per dimension (the Section 5.1 learning
// heuristic).
//
// The index is derived and never serialized: BouquetSimulator builds it in
// its constructor, which runs both at compile time and when a serialized
// bouquet is loaded, and a BouquetDriver serving a compiled bouquet reads
// that one.
//
// Candidate-order invariant: Candidates() lists plans in the order of their
// first qualifying point in BouquetContour::points order. The climb
// (climb.h) breaks error-node depth ties in favour of the earlier plan, so
// any pruning or reordering of the scan must keep that order or the step
// sequences change (the golden fingerprints in test_simulator and
// test_driver pin them).
//
// Thread-safety: immutable after construction; Candidates() writes only the
// caller's Scratch.

#ifndef BOUQUET_BOUQUET_CONTOUR_INDEX_H_
#define BOUQUET_BOUQUET_CONTOUR_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bouquet/bouquet.h"
#include "ess/plan_diagram.h"
#include "query/query_spec.h"

namespace bouquet {

class ContourIndex {
 public:
  /// Per-run scratch for Candidates(): sized once per run and reused across
  /// its steps, so a step allocates nothing.
  struct Scratch {
    explicit Scratch(const ContourIndex& index)
        : mark(static_cast<size_t>(index.num_plans()), 0) {
      candidates.reserve(mark.size());
      axis.reserve(mark.size());
    }
    /// Forgets every Exclude() (call when the climb moves to a new contour).
    void ResetExcluded();
    /// Drops a dense plan from later scans (it already ran on this contour).
    void Exclude(int dense) { mark[static_cast<size_t>(dense)] = kExcluded; }

    std::vector<uint8_t> mark;    ///< per dense plan
    std::vector<int> candidates;  ///< dense plan ids, first-point order
    std::vector<int> axis;        ///< dense plan ids, first-axis-point order
  };

  ContourIndex(const PlanBouquet& bouquet, const PlanDiagram& diagram,
               const QuerySpec& query);

  int dims() const { return dims_; }
  size_t num_contours() const { return offset_.size() - 1; }

  /// Plans are numbered densely: bouquet.plan_ids in order, then any plan
  /// that a contour assigns but plan_ids lacks.
  int num_plans() const { return static_cast<int>(plan_of_dense_.size()); }
  int plan_id(int dense) const { return plan_of_dense_[dense]; }
  /// Dense number of a diagram plan id; -1 when no contour or bouquet
  /// plan list names it.
  int dense(int plan_id) const;

  /// Error-node depth (ErrorNodeMaxDepth) of a dense plan in dimension d.
  int depth(int dense, int d) const {
    return depth_[static_cast<size_t>(dense) * dims_ + d];
  }
  /// The deepest error node among the dimensions not yet `learned`: returns
  /// the first dimension of greatest depth and stores that depth in *depth;
  /// returns -1 with *depth = -1 when no unlearned dimension has one.
  int DeepestUnlearned(int dense, const std::vector<bool>& learned,
                       int* depth) const;

  /// Grid coordinates of contour k's i-th point (dims() values).
  const int* coords(size_t k, size_t i) const {
    return &coords_[(offset_[k] + i) * dims_];
  }
  /// Dense plan of contour k's i-th point (BouquetContour::plan_at).
  int dense_at(size_t k, size_t i) const { return dense_at_[offset_[k] + i]; }
  size_t num_points(size_t k) const { return offset_[k + 1] - offset_[k]; }

  /// First-quadrant scan of contour k against grid coordinates `lo`. Fills
  /// s->candidates with every plan that has a point p >= lo in all
  /// dimensions and is not excluded, in the order of its first such point,
  /// and s->axis with the candidates that have a point on an axis through lo
  /// (p equals lo in all dimensions but at most one), in the order of their
  /// first such point.
  void Candidates(size_t k, const int* lo, Scratch* s) const;

 private:
  static constexpr uint8_t kExcluded = 1;
  static constexpr uint8_t kListed = 2;
  static constexpr uint8_t kOnAxis = 4;

  int dims_ = 0;
  std::vector<int> plan_of_dense_;
  std::vector<int> dense_of_plan_;  // diagram plan id -> dense, or -1
  std::vector<int> depth_;          // [dense * dims + d]
  std::vector<size_t> offset_;      // contour k: points [offset_[k], [k+1])
  std::vector<int> coords_;         // [point * dims + d]
  std::vector<int> dense_at_;       // [point]
};

}  // namespace bouquet

#endif  // BOUQUET_BOUQUET_CONTOUR_INDEX_H_
