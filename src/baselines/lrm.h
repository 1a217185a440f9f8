// LRM — the Low-Rank Mechanism [49]. Factors the workload W ~ B L and
// measures the low-rank query set L; answers are reconstructed as B y.
//
// Substitution note: the original solves an augmented
// Lagrangian program under an L1 sensitivity constraint. This implementation
// seeds with the spectral (SVD-bound) factorization obtained from the
// eigendecomposition of W^T W — the closed-form optimum of the Frobenius
// relaxation — and refines it with alternating least squares. It preserves
// LRM's two observable behaviors: error between LM and HDMM, and O(N^3)
// scaling that walls out near N ~ 10^4.
#ifndef HDMM_BASELINES_LRM_H_
#define HDMM_BASELINES_LRM_H_

#include "common/rng.h"
#include "linalg/matrix.h"

namespace hdmm {

/// Options for LRM.
struct LrmOptions {
  int64_t rank = 0;       ///< 0 = retain eigenvalues above spectral_tol.
  double spectral_tol = 1e-10;
  int als_iterations = 4;
};

/// Result: factorization and its expected error.
struct LrmResult {
  Matrix b;  ///< m x r reconstruction matrix.
  Matrix l;  ///< r x n strategy (the measured queries).
  /// ||L||_1^2 * ||B||_F^2 — the sens^2-scaled expected squared error.
  double squared_error = 0.0;
};

/// Runs LRM on an explicit workload Gram matrix (n x n) with `m` original
/// workload rows. Only the Gram is needed because the error depends on W
/// through its spectrum; B is returned in the eigenbasis.
LrmResult LowRankMechanismFromGram(const Matrix& workload_gram,
                                   const LrmOptions& options = LrmOptions());

/// Runs LRM on an explicit workload matrix (keeps B aligned with W's rows).
LrmResult LowRankMechanism(const Matrix& w,
                           const LrmOptions& options = LrmOptions());

}  // namespace hdmm

#endif  // HDMM_BASELINES_LRM_H_
