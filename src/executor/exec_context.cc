#include "executor/exec_context.h"

#include <cstdio>
#include <cstdlib>

namespace bouquet {

void FailFixedCost(double cost) {
  std::fprintf(stderr,
               "bouquet: charge or budget %g is not a non-negative cost; "
               "it has no fixed-point value\n",
               cost);
  std::abort();
}

}  // namespace bouquet
