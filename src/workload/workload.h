// Implicit workload representations (Section 4): products of per-attribute
// blocks and weighted unions of products, with the operations (Gram matrices,
// operators, storage accounting) that make the implicit form useful.
#ifndef HDMM_WORKLOAD_WORKLOAD_H_
#define HDMM_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/kron.h"
#include "linalg/linear_operator.h"
#include "linalg/matrix.h"
#include "workload/domain.h"

namespace hdmm {

/// One product term W_1 x ... x W_d (Definition 2 / Equation 1): the queries
/// are all conjunctions of one row from each factor. `weight` scales every
/// query in the product (Section 3.3, weighted workloads).
struct ProductWorkload {
  std::vector<Matrix> factors;
  double weight = 1.0;

  /// Number of queries = product of factor row counts.
  int64_t NumQueries() const;

  /// Domain size = product of factor column counts.
  int64_t DomainSize() const;

  /// Explicit (small-domain) expansion: weight * (W_1 x ... x W_d).
  Matrix Explicit() const;

  /// Number of doubles stored by the implicit representation.
  int64_t ImplicitStorageDoubles() const;
};

/// Statistics of one workload factor F (see UnionWorkload::Stats).
struct FactorStats {
  double frobenius_sq = 0.0;  ///< ||F||_F^2 = tr(F^T F).
  double row_sum_sq = 0.0;    ///< ||F 1||^2 = 1^T F^T F 1.
  /// Every entry is 1: each row asks the Total query, F^T F = rows * 11^T.
  bool total_like = false;
};

/// A weighted union of products W = w_1 W_1 + ... + w_k W_k (stacking).
class UnionWorkload {
 public:
  UnionWorkload() = default;
  explicit UnionWorkload(Domain domain) : domain_(std::move(domain)) {}

  /// Appends a product term; its factor column counts must match the domain.
  /// Starts a new, empty factor table (see FactorKey and Stats).
  void AddProduct(ProductWorkload p);

  const Domain& domain() const { return domain_; }
  const std::vector<ProductWorkload>& products() const { return products_; }
  int NumProducts() const { return static_cast<int>(products_.size()); }

  /// Content key of factor i of product j: GramCache::FactorKey of that
  /// factor. Hashed once per workload, lazily and thread-safely on first
  /// use, so parsing never pays for it. Copies share one key table
  /// (products never change once added); AddProduct starts a new one.
  uint64_t FactorKey(int j, int i) const;

  /// Statistics of factor i of product j, computed once per workload in the
  /// same way as FactorKey (lazily, thread-safely, shared by copies, reset
  /// by AddProduct). OPT_+'s signature groups, OPT_x's Total-only attributes
  /// and the marginals trace vector read them.
  const FactorStats& Stats(int j, int i) const;

  /// Gram W_i^T W_i of factor i of product j, shared from the process-wide
  /// GramCache (content-keyed, closed-form aware) under FactorKey(j, i), so
  /// repeated calls across restarts and plans neither recompute the SYRK
  /// nor rehash the factor.
  std::shared_ptr<const Matrix> FactorGram(int j, int i) const;

  /// Total number of predicate counting queries across all products.
  int64_t TotalQueries() const;

  /// N = |dom(R)|.
  int64_t DomainSize() const { return domain_.TotalSize(); }

  /// Explicit stacked matrix (small domains only; weights folded in).
  Matrix Explicit() const;

  /// Explicit Gram matrix W^T W = sum_j w_j^2 kron_i G_i^(j) (Section 4.4).
  /// Only for modest N.
  Matrix ExplicitGram() const;

  /// Implicit operator for matrix-vector products with W.
  std::shared_ptr<LinearOperator> ToOperator() const;

  /// Doubles needed by the implicit representation (Examples 6-7).
  int64_t ImplicitStorageDoubles() const;

  /// Doubles an explicit dense matrix would need (Examples 6-7).
  int64_t ExplicitStorageDoubles() const;

  /// Exact per-column absolute sums of the stacked workload, expanded over
  /// the full domain: used for the Laplace-mechanism sensitivity. Requires
  /// N <= max_cells (memory guard; dies beyond it).
  Vector AbsColumnSums(int64_t max_cells = (int64_t{1} << 26)) const;

  /// Sensitivity ||W||_1 (max abs column sum) via AbsColumnSums when the
  /// domain is small enough, else the per-product upper bound
  /// sum_j w_j prod_i ||W_i||_1 (exact when column profiles are uniform).
  double Sensitivity() const;

 private:
  struct FactorTable;
  /// Index of factor i of product j in the factor table (checks j and i).
  size_t SlotIndex(int j, int i) const;

  Domain domain_;
  std::vector<ProductWorkload> products_;
  /// FactorKey's and Stats' lazily filled table, one slot per (product,
  /// attribute); null until the first AddProduct.
  std::shared_ptr<FactorTable> factor_table_;
};

/// Builds a single-product union. Convenience used all over the benches.
UnionWorkload MakeProductWorkload(Domain domain, std::vector<Matrix> factors,
                                  double weight = 1.0);

/// Re-weights each product inversely to its average query L1 norm — the
/// Section 9 heuristic for approximately optimizing *relative* error on
/// near-uniform data ("by weighting the workload queries (e.g. inversely
/// with their L1-norm) we can approximately optimize relative error").
/// Returns a new workload with adjusted weights.
UnionWorkload WeightForRelativeError(const UnionWorkload& w);

}  // namespace hdmm

#endif  // HDMM_WORKLOAD_WORKLOAD_H_
