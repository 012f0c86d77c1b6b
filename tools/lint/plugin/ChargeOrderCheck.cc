#include "ChargeOrderCheck.h"

#include "BouquetLintUtils.h"
#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang {
namespace tidy {
namespace bouquet {

void ChargeOrderCheck::registerMatchers(MatchFinder *Finder) {
  Finder->addMatcher(fieldDecl(hasAttr(attr::Annotate)).bind("field"), this);
}

void ChargeOrderCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *Field = Result.Nodes.getNodeAs<FieldDecl>("field");
  if (Field == nullptr || !HasAnnotation(Field, kChargedTag)) return;
  // Typedefs such as FixedCost and int64_t resolve to their canonical type.
  const QualType Type = Field->getType().getCanonicalType();
  if (Type->isIntegerType() && !Type->isBooleanType()) return;
  diag(Field->getLocation(),
       "charged field %0 of type %1 is not integral; charged state is "
       "FixedCost (fixed-point units) or a count, so its sums are exact in "
       "any order")
      << Field << Field->getType();
}

}  // namespace bouquet
}  // namespace tidy
}  // namespace clang
