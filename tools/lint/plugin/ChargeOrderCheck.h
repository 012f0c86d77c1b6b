// bouquet-charge-order: fields tagged BOUQUET_CHARGED (the CostMeter
// accumulator, context page counters) have an integral type — the
// fixed-point charge type (FixedCost) or a count.
//
// Integer addition is associative, so an integral charge total is the same
// however the engines group or order its adds: the batch engine replays a
// run of n equal charges as one multiply, and an unbudgeted execution adds
// its charges in no particular order at all, and both still agree with the
// scalar engine on the charge and the abort point. A floating-point charged
// field would make that grouping visible in the last bit — enough to move
// a budget-abort point across engines and void the MSO bound. Fixture:
// tests/static/lint/fixtures/fail_charge_order.cc.

#ifndef BOUQUET_TOOLS_LINT_PLUGIN_CHARGE_ORDER_CHECK_H_
#define BOUQUET_TOOLS_LINT_PLUGIN_CHARGE_ORDER_CHECK_H_

#include "clang-tidy/ClangTidyCheck.h"

namespace clang {
namespace tidy {
namespace bouquet {

class ChargeOrderCheck : public ClangTidyCheck {
 public:
  ChargeOrderCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context) {}
  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
};

}  // namespace bouquet
}  // namespace tidy
}  // namespace clang

#endif  // BOUQUET_TOOLS_LINT_PLUGIN_CHARGE_ORDER_CHECK_H_
