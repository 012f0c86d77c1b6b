// Selectivity resolution with injection.
//
// This is the paper's "selectivity injection" optimizer hook (Sections 4.2,
// 5.4): every predicate selectivity the optimizer consumes flows through a
// SelectivityResolver, which serves catalog-derived defaults for error-free
// predicates and *injected* values for the declared error dimensions. The
// POSP generator optimizes the same query at thousands of ESS locations just
// by re-injecting.

#ifndef BOUQUET_OPTIMIZER_SELECTIVITY_H_
#define BOUQUET_OPTIMIZER_SELECTIVITY_H_

#include <vector>

#include "catalog/catalog.h"
#include "query/query_spec.h"

namespace bouquet {

/// One selectivity value per error dimension of a query, ordered as in
/// QuerySpec::error_dims.
using DimVector = std::vector<double>;

/// Resolves predicate selectivities: catalog defaults + injected overrides.
class SelectivityResolver {
 public:
  /// Computes catalog-derived defaults for every predicate. The referenced
  /// query and catalog must outlive the resolver.
  SelectivityResolver(const QuerySpec& query, const Catalog& catalog);

  /// Overrides the error-dimension predicates with the given values
  /// (dims.size() must equal query.NumDims()). Cheap; called per ESS point.
  void Inject(const DimVector& dims);

  /// Restores all predicates to their catalog defaults.
  void ClearInjection();

  double FilterSelectivity(int filter_idx) const {
    return filter_sel_[filter_idx];
  }
  double JoinSelectivity(int join_idx) const { return join_sel_[join_idx]; }

  /// Current selectivity of error dimension `dim` (its predicate's slot).
  double DimSelectivity(int dim) const {
    const ErrorDimension& d = query_->error_dims[dim];
    return d.kind == DimKind::kSelection ? filter_sel_[d.predicate_index]
                                         : join_sel_[d.predicate_index];
  }

  const QuerySpec& query() const { return *query_; }
  const Catalog& catalog() const { return *catalog_; }

  /// The default (uninjected) selectivity of a predicate, as the classical
  /// optimizer would estimate it — used by the NAT baseline to locate q_e.
  double DefaultFilterSelectivity(int filter_idx) const {
    return default_filter_sel_[filter_idx];
  }
  double DefaultJoinSelectivity(int join_idx) const {
    return default_join_sel_[join_idx];
  }

 private:
  const QuerySpec* query_;
  const Catalog* catalog_;
  std::vector<double> default_filter_sel_;
  std::vector<double> default_join_sel_;
  std::vector<double> filter_sel_;
  std::vector<double> join_sel_;
};

}  // namespace bouquet

#endif  // BOUQUET_OPTIMIZER_SELECTIVITY_H_
