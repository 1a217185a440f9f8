#include "core/svd_bound.h"

#include <cmath>

#include "common/check.h"
#include "linalg/eigen_sym.h"
#include "linalg/svd.h"

namespace hdmm {

double WorkloadNuclearNorm(const UnionWorkload& w,
                           int64_t max_explicit_cells) {
  HDMM_CHECK_MSG(w.NumProducts() > 0, "empty workload");

  if (w.NumProducts() == 1) {
    // Multiplicativity over Kronecker factors: no expansion needed, so this
    // path works at any domain size.
    const ProductWorkload& p = w.products()[0];
    double norm = std::abs(p.weight);
    for (const Matrix& factor : p.factors) norm *= NuclearNorm(factor);
    return norm;
  }

  // Union of products: ||W||_* = sum_i sqrt(lambda_i(W^T W)). The Gram is
  // N x N, so guard the expansion.
  const int64_t n = w.DomainSize();
  HDMM_CHECK_MSG(n * n <= max_explicit_cells,
                 "union workload too large for explicit Gram nuclear norm");
  Matrix gram = w.ExplicitGram();
  // Only the spectrum is needed: skip eigenvector accumulation entirely.
  Vector lambdas = EigenvaluesSym(gram);
  double total = 0.0;
  for (double lambda : lambdas) {
    if (lambda > 0.0) total += std::sqrt(lambda);
  }
  return total;
}

double SquaredErrorLowerBound(const UnionWorkload& w,
                              int64_t max_explicit_cells) {
  const double nuclear = WorkloadNuclearNorm(w, max_explicit_cells);
  return nuclear * nuclear / static_cast<double>(w.DomainSize());
}

}  // namespace hdmm
