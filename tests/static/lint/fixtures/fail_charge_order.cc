// Negative lint fixture: bouquet-charge-order requires every
// BOUQUET_CHARGED field to have an integral type — the fixed-point charge
// type or a count — so charged sums are exact whatever the order of the
// adds. Integral fields are included as in-file negatives (must NOT fire).
// See fail_determinism.cc for the fixture conventions.

#include <cstdint>

#include "common/lint.h"
#include "executor/exec_context.h"

namespace bouquet_lint_fixture {

class Meter {
 public:
  void Charge(bouquet::FixedCost unit, uint32_t count) {
    charged_ += unit * count;
    ++charges_;
    cost_ += bouquet::CostFromFixed(unit) * count;
    units_ += static_cast<float>(count);
    scaled_ += 1.0L;
  }

  void Reset() {
    charged_ = 0;
    charges_ = 0;
  }

  bouquet::FixedCost charged() const { return charged_; }
  double cost() const { return cost_ + units_ + static_cast<double>(scaled_); }

 private:
  BOUQUET_CHARGED bouquet::FixedCost charged_ = 0;
  BOUQUET_CHARGED int64_t charges_ = 0;
  BOUQUET_CHARGED double cost_ = 0.0;  // expect-lint: bouquet-charge-order
  BOUQUET_CHARGED float units_ = 0.0f;  // expect-lint: bouquet-charge-order
  BOUQUET_CHARGED long double scaled_ = 0;  // expect-lint: bouquet-charge-order
};

}  // namespace bouquet_lint_fixture
