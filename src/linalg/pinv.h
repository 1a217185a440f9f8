// Moore-Penrose pseudo-inverses. The RECONSTRUCT step of the mechanism
// (Table 1) and the error metric (Definition 7) are defined through A^+.
#ifndef HDMM_LINALG_PINV_H_
#define HDMM_LINALG_PINV_H_

#include "linalg/matrix.h"

namespace hdmm {

/// Pseudo-inverse of a symmetric positive semi-definite matrix via
/// eigendecomposition. Eigenvalues at or below 1e-12 * max_eigenvalue are
/// treated as zero.
Matrix PsdPseudoInverse(const Matrix& x);

/// Pseudo-inverse of a general matrix. Uses A^+ = (A^T A)^+ A^T when
/// rows >= cols and A^+ = A^T (A A^T)^+ otherwise, with PsdPseudoInverse's
/// eigenvalue cutoff on the Gram.
Matrix PseudoInverse(const Matrix& a);

/// tr[(A^T A)^+ G] with PSD pseudo-inverse semantics; the core quantity in
/// the expected-error formula ||W A^+||_F^2 = tr[(A^T A)^+ (W^T W)]
/// (Equation 3). Falls back from Cholesky to the eigendecomposition path
/// when A^T A is singular.
double TracePinvGram(const Matrix& gram_a, const Matrix& gram_w);

/// Precomputed form of TracePinvGram for a fixed strategy factor A:
/// (A^T A)^+ is materialized once, and each Trace against a workload Gram is
/// the symmetric elementwise dot tr[(A^T A)^+ G] = sum_ij (A^T A)^+_ij G_ij —
/// no factorization, no solve, and no allocation per call. This is what lets
/// strategy error evaluation run allocation-free over repeated workloads
/// (the optimizer's restart grid evaluates the same factors against every
/// candidate).
class PinvGramTracer {
 public:
  /// With rows >= cols, inverts A^T A by Cholesky (PSD pseudo-inverse when
  /// singular). A wide factor (rows < cols) has a singular Gram by
  /// construction, yet its Cholesky can succeed on a pivot that rounding
  /// left tiny and positive (e.g. lambda^2 * 11^T); its (A^T A)^+ is built
  /// as A^+ A^+T from PseudoInverse's rows x rows branch instead.
  explicit PinvGramTracer(const Matrix& factor);
  double Trace(const Matrix& gram_w) const;
  int64_t rows() const { return inv_.rows(); }

 private:
  Matrix inv_;
};

}  // namespace hdmm

#endif  // HDMM_LINALG_PINV_H_
