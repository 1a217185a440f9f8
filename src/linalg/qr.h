// Column-pivoted Householder QR least squares: solves min ||A X - B|| without
// forming normal equations (which square the condition number) and without
// dying on rank-deficient A. The LRM baseline's alternating solves run on it;
// pseudo-inverses live in linalg/pinv.h.
#ifndef HDMM_LINALG_QR_H_
#define HDMM_LINALG_QR_H_

#include "linalg/matrix.h"

namespace hdmm {

/// Minimum-residual "basic" solution of min_X ||A X - B||_F through a
/// Businger-Golub column-pivoted (rank-revealing) factorization A P = Q R.
/// Pivots whose |r_jj| fall below 1e-12 * |r_00| count as beyond the
/// numerical rank; their directions are truncated instead of divided by, so
/// rank-deficient systems get a finite least-squares solution (the one with
/// zero coefficients on the n - rank non-pivot columns, not the minimum-norm
/// one). Requires rows >= cols; B stacks one right-hand side per column.
Matrix PivotedQrLeastSquares(const Matrix& a, const Matrix& b);

}  // namespace hdmm

#endif  // HDMM_LINALG_QR_H_
