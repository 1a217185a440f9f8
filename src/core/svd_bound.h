// The singular-value (spectral) lower bound on strategy error, after
// Li & Miklau, "Optimal error of query sets under the differentially-private
// matrix mechanism" (ICDT 2013) — reference [28] of the paper. Section 9
// notes that HDMM's distance to optimality is unknown in general; this module
// makes the bound computable (implicitly, for product workloads) so the gap
// can be measured. See bench/bench_lower_bound.cc for the measurements.
#ifndef HDMM_CORE_SVD_BOUND_H_
#define HDMM_CORE_SVD_BOUND_H_

#include "linalg/matrix.h"
#include "workload/workload.h"

namespace hdmm {

/// Nuclear norm ||W||_* of an implicit workload.
///
/// For a single product the norm is computed without expansion:
/// ||W_1 x ... x W_d||_* = prod_i ||W_i||_* (singular values of a Kronecker
/// product are the products of factor singular values). For unions of
/// products it is computed from the eigenvalues of the explicit Gram matrix
/// W^T W = sum_j w_j^2 (G_1^(j) x ... x G_d^(j)), which requires
/// N <= max_explicit_cells (dies beyond it).
double WorkloadNuclearNorm(const UnionWorkload& w,
                           int64_t max_explicit_cells = (int64_t{1} << 24));

/// Lower bound on ||A||_1^2 ||W A^+||_F^2 over every strategy A that
/// supports W:
///
///   ||A||_1^2 ||W A^+||_F^2  >=  ||W||_*^2 / N.
///
/// Proof sketch: W = (W A^+) A gives ||W||_* <= ||W A^+||_F ||A||_F
/// (von Neumann trace inequality), and each column's L2 norm is at most its
/// L1 sum, so ||A||_F^2 <= N ||A||_1^2. The bound is tight for W = I (any
/// scaled orthogonal strategy) and W = Total. Under pure epsilon-DP it can
/// be loose for range-type workloads (the Section 9 caveat), which is
/// exactly what the optimality-gap bench quantifies.
double SquaredErrorLowerBound(const UnionWorkload& w,
                              int64_t max_explicit_cells = (int64_t{1} << 24));

}  // namespace hdmm

#endif  // HDMM_CORE_SVD_BOUND_H_
