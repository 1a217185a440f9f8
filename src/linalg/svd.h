// Singular values via the one-sided Jacobi method: the spectral quantities
// behind the Li-Miklau lower bound on strategy error (Section 9 discussion)
// and the strategy diagnostics. Pseudo-inverses live in linalg/pinv.h.
#ifndef HDMM_LINALG_SVD_H_
#define HDMM_LINALG_SVD_H_

#include "linalg/matrix.h"

namespace hdmm {

/// Singular values of A in descending order, min(rows, cols) of them.
/// Columns of a working copy of A (or of A^T, whichever is tall) are rotated
/// pairwise until mutually orthogonal; their norms are the singular values.
/// O(m n^2) per sweep and unconditionally backward stable; the sweeps needed
/// are few (< 20) for the matrices this library produces.
Vector SingularValues(const Matrix& a);

/// Nuclear norm ||A||_* = sum of singular values.
double NuclearNorm(const Matrix& a);

}  // namespace hdmm

#endif  // HDMM_LINALG_SVD_H_
