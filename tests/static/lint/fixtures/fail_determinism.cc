// Negative lint fixture: every nondeterministic source bouquet-determinism
// bans, one per construct, in an accounting-scoped path (tests/static/lint
// opts into the module scope). Each `expect-lint:` marker names the check
// that must fire on that line; scripts/check_lint_fixtures.py fails if the
// engine reports anything more or less.
//
// The fixture must COMPILE (it is a lint violation, not a compile error) —
// the configure step try_compiles it like the thread-safety probes.

#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>

#include "common/lint.h"
#include "fail_determinism.h"

namespace bouquet_lint_fixture {

struct Widget {
  int weight = 0;
};

// Pointer-keyed ordered container: iteration order tracks the allocator.
std::map<Widget*, int> by_widget;  // expect-lint: bouquet-determinism

int WeightOf(Widget* w) { return by_widget[w]; }

double ChargeFromClock() {
  // A clock read feeding a "charge" — the canonical MSO violation.
  auto t = std::chrono::steady_clock::now();  // expect-lint: bouquet-determinism
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

double ChargeFromEnvironment() {
  const char* knob = std::getenv("BOUQUET_FUDGE");  // expect-lint: bouquet-determinism
  return knob == nullptr ? 1.0 : 2.0;
}

int SeedFromRand() {
  return std::rand();  // expect-lint: bouquet-determinism
}

class HashOrderReplay {
 public:
  void Add(const std::string& key, double v) { charges_[key] += v; }

  // Iterating the hash map in storage order: the emitted sequence (and any
  // abort-truncated prefix of it) depends on the standard library.
  double Total() const {
    double total = 0.0;
    for (const auto& [key, value] : charges_) {  // expect-lint: bouquet-determinism
      total += value;
    }
    return total;
  }

 private:
  std::unordered_map<std::string, double> charges_;
};

// The same walks over a member declared in the companion header: a range-for
// and an explicit iterator.
double FrameTable::SumCharges() const {
  double total = 0.0;
  for (const auto& [key, charge] : frames_) {  // expect-lint: bouquet-determinism
    total += charge;
  }
  return total;
}

double FrameTable::FirstCharge() const {
  const auto it = frames_.begin();  // expect-lint: bouquet-determinism
  return it == frames_.end() ? 0.0 : it->second;
}

}  // namespace bouquet_lint_fixture
