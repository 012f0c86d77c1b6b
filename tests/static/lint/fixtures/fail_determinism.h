// Companion header of fail_determinism.cc. It declares an unordered member
// that only the .cc iterates, as src/ classes declare theirs in the header
// and walk them in the .cc. bouquet-determinism reads the .h with the same
// stem as the .cc it lints, so those walks are reported in the .cc.

#ifndef BOUQUET_LINT_FIXTURE_FAIL_DETERMINISM_H_
#define BOUQUET_LINT_FIXTURE_FAIL_DETERMINISM_H_

#include <cstdint>
#include <unordered_map>

namespace bouquet_lint_fixture {

class FrameTable {
 public:
  void Add(uint64_t key, double charge) { frames_[key] += charge; }
  double SumCharges() const;
  double FirstCharge() const;

 private:
  std::unordered_map<uint64_t, double> frames_;
};

}  // namespace bouquet_lint_fixture

#endif  // BOUQUET_LINT_FIXTURE_FAIL_DETERMINISM_H_
