// Approximate-DP measurement via the Gaussian mechanism, calibrated through
// zCDP. Section 3.5 of the paper notes the HDMM machinery "also appl[ies] to
// a version of MM satisfying approximate differential privacy (delta > 0)":
// the only changes are L2 (not L1) sensitivity and Gaussian (not Laplace)
// noise; selection, measurement, and reconstruction are otherwise identical.
//
// sigma = sens / sqrt(2 rho) gives rho-zCDP exactly, for any rho > 0 (Bun &
// Steinke, Prop 1.6). rho-zCDP implies (rho + 2 sqrt(rho ln(1/delta)),
// delta)-DP for every delta (Prop 1.3) and composes additively; it is the
// regime the HDMM journal version (McKenna et al. 2021) accounts Gaussian
// measurements in. Strategy::MeasureGaussian draws the noise.
#ifndef HDMM_CORE_GAUSSIAN_H_
#define HDMM_CORE_GAUSSIAN_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace hdmm {

/// Euclidean norm of v[0], v[stride], ..., v[(n - 1) * stride]. The plain
/// sqrt(sum of squares) whenever that sum is a normal double, so ordinary
/// norms keep their bits; when the squares overflow or underflow it is
/// recomputed scaled by the largest magnitude, so the norm is finite
/// wherever the L1 norm is, and positive wherever a value is nonzero.
double L2Norm(const double* v, int64_t n, int64_t stride = 1);

/// L2 sensitivity of an explicit strategy: max column Euclidean norm.
double L2Sensitivity(const Matrix& a);

/// L2 sensitivity of a Kronecker strategy: columns of a Kronecker product
/// are Kronecker products of columns, and ||u x v||_2 = ||u||_2 ||v||_2, so
/// the sensitivity is the product of the factor sensitivities.
double KronL2Sensitivity(const std::vector<Matrix>& factors);

// --- zCDP calibration and Bun-Steinke conversions ---------------------------

/// Noise scale delivering rho-zCDP: sigma = sens / sqrt(2 rho)
/// (Bun & Steinke, Prop 1.6). Valid for every rho > 0.
double GaussianSigmaFromRho(double l2_sensitivity, double rho);

/// rho-zCDP implies (eps, delta)-DP with eps = rho + 2 sqrt(rho ln(1/delta))
/// (Bun & Steinke, Prop 1.3). Used to report a zCDP ledger in (eps, delta).
double RhoToEpsilon(double rho, double delta);

/// Largest rho whose Bun-Steinke (eps, delta) guarantee stays within the
/// given eps: the exact inverse of RhoToEpsilon in rho, i.e.
/// rho = (sqrt(ln(1/delta) + eps) - sqrt(ln(1/delta)))^2.
double RhoFromEpsilonDelta(double epsilon, double delta);

/// Pure eps-DP implies (eps^2/2)-zCDP (Bun & Steinke, Prop 1.4): the cost of
/// accounting a Laplace measurement inside a zCDP ledger.
double PureDpToRho(double epsilon);

}  // namespace hdmm

#endif  // HDMM_CORE_GAUSSIAN_H_
