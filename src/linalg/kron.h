// Kronecker-product machinery: the compact implicit representation at the
// heart of HDMM (Section 4) and the kmatvec algorithm (Appendix A.5).
#ifndef HDMM_LINALG_KRON_H_
#define HDMM_LINALG_KRON_H_

#include <memory>
#include <vector>

#include "linalg/linear_operator.h"
#include "linalg/matrix.h"

namespace hdmm {

/// Explicit Kronecker product of two matrices (Definition 8). For tests and
/// small domains only: output has rows(a)*rows(b) x cols(a)*cols(b) entries.
Matrix KronExplicit(const Matrix& a, const Matrix& b);

/// Explicit Kronecker product of a list of factors, folded left to right.
Matrix KronExplicit(const std::vector<Matrix>& factors);

/// Kronecker product of vectors (row-major flattening convention).
Vector KronVector(const std::vector<Vector>& factors);

/// y = (A_1 x ... x A_d) x computed without materializing the product
/// (Algorithm "kmatvec", Appendix A.5). Time O(sum_i m_i * n_i * N / n_i),
/// space O(N). This is the library's only kmatvec: KronOperator and the
/// Kronecker strategies all run it.
Vector KronMatVec(const std::vector<const Matrix*>& factors, const Vector& x);

/// Convenience overload for owned factor lists.
Vector KronMatVec(const std::vector<Matrix>& factors, const Vector& x);

/// y = (A_1 x ... x A_d)^T x, via kmatvec on the transposed factors.
Vector KronMatTVec(const std::vector<Matrix>& factors, const Vector& x);

/// Implicit Kronecker-product operator over owned factors.
class KronOperator : public LinearOperator {
 public:
  using LinearOperator::Apply;
  using LinearOperator::ApplyTranspose;
  explicit KronOperator(std::vector<Matrix> factors);
  int64_t Rows() const override { return rows_; }
  int64_t Cols() const override { return cols_; }
  void Apply(const Vector& x, Vector* y) const override;
  void ApplyTranspose(const Vector& x, Vector* y) const override;
  const std::vector<Matrix>& factors() const { return factors_; }

 private:
  std::vector<Matrix> factors_;
  int64_t rows_;
  int64_t cols_;
};

/// Sensitivity of a Kronecker strategy (Theorem 3):
/// ||A_1 x ... x A_d||_1 = prod_i ||A_i||_1.
double KronSensitivity(const std::vector<Matrix>& factors);

}  // namespace hdmm

#endif  // HDMM_LINALG_KRON_H_
