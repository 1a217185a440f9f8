// Cholesky factorization and SPD solves. Workhorse for the closed-form error
// computation tr[(A^T A)^{-1} (W^T W)] (Definition 7 / Equation 3).
//
// The factorization is right-looking and blocked: a small diagonal panel is
// factored with the scalar algorithm, the panel below it is finished with a
// per-row triangular solve, and the trailing matrix is updated with a SYRK
// rank-kPanel GEMM through the blocked substrate in linalg/gemm.h, so almost
// all of the n^3/3 flops run at GEMM speed. Solves against many right-hand
// sides are likewise blocked (panel-at-a-time, vectorized across the RHS
// columns) instead of extracting one column Vector at a time.
//
// The header also holds the plain upper-triangular substitutions that OPT_M
// (core/opt_marginals) runs against its marginals-algebra matrix.
#ifndef HDMM_LINALG_CHOLESKY_H_
#define HDMM_LINALG_CHOLESKY_H_

#include "linalg/gemm.h"
#include "linalg/matrix.h"

namespace hdmm {

/// Computes the lower-triangular Cholesky factor L with X = L L^T.
/// Returns false if X is not (numerically) positive definite.
bool CholeskyFactor(const Matrix& x, Matrix* l);

/// Solves L z = b in place (forward substitution, L lower triangular).
void ForwardSubstitute(const Matrix& l, Vector* b);

/// Solves L^T z = b in place (backward substitution against L^T).
void BackwardSubstituteTranspose(const Matrix& l, Vector* b);

/// Solves L Y = B in place over all columns of B at once (blocked forward
/// substitution: GEMM panel updates plus a vectorized diagonal-block solve).
void ForwardSubstituteMatrix(const Matrix& l, Matrix* b);

/// Solves L^T Y = B in place over all columns of B at once.
void BackwardSubstituteTransposeMatrix(const Matrix& l, Matrix* b);

/// Solves X y = b for SPD X given its Cholesky factor L.
Vector CholeskySolve(const Matrix& l, const Vector& b);

/// Solves X Y = B for SPD X given its Cholesky factor L; `out` is resized and
/// overwritten. All right-hand sides are solved together through the blocked
/// multi-RHS substitutions (no per-column Vector copies).
void CholeskySolveMatrixInto(const Matrix& l, const Matrix& b, Matrix* out);

}  // namespace hdmm

#endif  // HDMM_LINALG_CHOLESKY_H_
