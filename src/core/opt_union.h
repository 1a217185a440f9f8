// OPT_+ (Definition 11): partitions a union-of-products workload into groups,
// optimizes each group with OPT_x, and combines the outputs into a
// union-of-products strategy. Needed when a single product strategy forces a
// suboptimal pairing of queries across attributes, e.g. (R x T) u (T x R).
#ifndef HDMM_CORE_OPT_UNION_H_
#define HDMM_CORE_OPT_UNION_H_

#include <vector>

#include "core/opt_kron.h"
#include "workload/workload.h"

namespace hdmm {

/// Options for OPT_+.
struct OptUnionOptions {
  OptKronOptions kron;
  int max_groups = 4;  ///< Upper bound on the number of strategy parts.
  /// Optimize the per-group budget split instead of splitting evenly
  /// (the extension noted under Definition 11: "each A_i gets a different
  /// fraction of the privacy budget"). The optimal split for group errors
  /// e_g is lambda_g proportional to e_g^{1/3}, giving total error
  /// (sum_g e_g^{1/3})^3 <= l^2 sum_g e_g.
  bool optimize_budget_split = true;
};

/// Result of OPT_+.
struct OptUnionResult {
  /// Per group, per attribute: the OPT_x strategy factors of the group
  /// (A(Theta) or 1^T), with the group's budget share lambda_g folded into
  /// its first factor so that the stacked sensitivity sums to 1.
  std::vector<std::vector<Matrix>> group_factors;
  std::vector<std::vector<int>> group_products;   ///< Product indices.
  std::vector<double> budget_split;               ///< lambda_g, sums to 1.
  /// Total error under the chosen budget split (even or optimized):
  /// sum_g e_g / lambda_g^2 for sensitivity-1 group strategies.
  double error = 0.0;
};

/// Closed-form optimal budget split for per-group errors e_g:
/// lambda_g = e_g^{1/3} / sum_h e_h^{1/3}.
std::vector<double> OptimalBudgetSplit(const std::vector<double>& errors);

/// The grouping function g of Section 7.1: products are grouped by the set
/// of attributes on which their factor is not Total-like (a signature
/// bitmask). Groups beyond max_groups are merged smallest-first.
std::vector<std::vector<int>> PartitionBySignature(const UnionWorkload& w,
                                                   int max_groups);

/// Runs OPT_+ on the workload.
OptUnionResult OptUnion(const UnionWorkload& w, const OptUnionOptions& options,
                        Rng* rng);

}  // namespace hdmm

#endif  // HDMM_CORE_OPT_UNION_H_
