// Positive control for the bouquet-* lint gate: exercises every escape
// hatch and sanctioned pattern — annotated wall-clock helper, integral
// charged fields under any arithmetic, drain-into-sort hash-map emission,
// bound PageGuard, handled Status, schema-known span name — and must
// produce ZERO findings. If this fixture starts firing, an escape hatch
// rotted, and every justified use in src/ would be a false positive.

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lint.h"
#include "common/status.h"
#include "executor/exec_context.h"
#include "obs/trace.h"
#include "storage/buffer_manager.h"

namespace bouquet_lint_fixture {

// Integral charged state may be written any way at all: integer sums are
// exact whatever their grouping, so a bulk sum, a multiply or a
// saturating write-back gives the same total as one add per unit.
class CleanMeter {
 public:
  void Charge(bouquet::FixedCost unit) {
    charged_ = bouquet::SatAdd(charged_, unit);
  }

  void ChargeRun(bouquet::FixedCost unit, int64_t count) {
    charged_ += unit * count;
    events_++;
  }

  void ChargeAll(const std::vector<bouquet::FixedCost>& units) {
    charged_ += std::accumulate(units.begin(), units.end(),
                                bouquet::FixedCost{0});
  }

  void Reset() {
    charged_ = 0;
    events_ = 0;
  }

  bouquet::FixedCost charged() const { return charged_; }

 private:
  BOUQUET_CHARGED bouquet::FixedCost charged_ = 0;
  BOUQUET_CHARGED int64_t events_ = 0;
};

// Telemetry-only wall clock behind the annotation: the duration feeds a
// stats struct, never charged cost or replay state.
BOUQUET_NONDETERMINISM_OK double ElapsedSeconds(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

class SortedEmitter {
 public:
  void Add(const std::string& key, double v) { groups_[key] += v; }

  // Sanctioned pattern for unordered state: drain into a vector and sort
  // before any order-sensitive consumer (or abort point) can see it.
  std::vector<std::pair<std::string, double>> Drain() {
    // NOLINTNEXTLINE(bouquet-determinism): drained into the sort below
    std::vector<std::pair<std::string, double>> rows(groups_.begin(),
                                                     groups_.end());
    std::sort(rows.begin(), rows.end());
    groups_.clear();
    return rows;
  }

 private:
  std::unordered_map<std::string, double> groups_;
};

uint8_t BoundPageRead(bouquet::storage::BufferManager& bm,
                      bouquet::storage::PageId id) {
  bouquet::storage::PageGuard guard = bm.Pin(id);
  return guard.valid() ? guard.data()[0] : 0;
}

bouquet::Status HandledStatus(bouquet::Status s) {
  if (!s.ok()) return s;
  return bouquet::Status::Ok();
}

void KnownSpanName(bouquet::obs::Tracer* tracer) {
  auto span = bouquet::obs::Tracer::Begin(tracer, "exec.node");
}

}  // namespace bouquet_lint_fixture
