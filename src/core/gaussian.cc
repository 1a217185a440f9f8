#include "core/gaussian.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace hdmm {

double L2Norm(const double* v, int64_t n, int64_t stride) {
  double sq = 0.0;
  for (int64_t i = 0; i < n; ++i) sq += v[i * stride] * v[i * stride];
  if (sq >= std::numeric_limits<double>::min() &&
      sq <= std::numeric_limits<double>::max()) {
    return std::sqrt(sq);
  }
  // The squares overflowed or underflowed: rescale by the largest magnitude.
  double scale = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    scale = std::max(scale, std::fabs(v[i * stride]));
  }
  if (scale == 0.0 || !std::isfinite(scale)) return std::sqrt(sq);
  double scaled = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double r = v[i * stride] / scale;
    scaled += r * r;
  }
  return scale * std::sqrt(scaled);
}

double L2Sensitivity(const Matrix& a) {
  // max_j sqrt(s_j) == sqrt(max_j s_j): sqrt is correctly rounded and
  // monotone, so column norms in the normal range keep their bits.
  double best = 0.0;
  for (int64_t j = 0; j < a.cols(); ++j) {
    best = std::max(best, L2Norm(a.data() + j, a.rows(), a.cols()));
  }
  return best;
}

double KronL2Sensitivity(const std::vector<Matrix>& factors) {
  double s = 1.0;
  for (const Matrix& f : factors) s *= L2Sensitivity(f);
  return s;
}

double GaussianSigmaFromRho(double l2_sensitivity, double rho) {
  HDMM_CHECK_MSG(std::isfinite(l2_sensitivity) && l2_sensitivity > 0.0,
                 "L2 sensitivity must be positive and finite");
  HDMM_CHECK_MSG(std::isfinite(rho) && rho > 0.0,
                 "rho must be positive and finite");
  return l2_sensitivity / std::sqrt(2.0 * rho);
}

double RhoToEpsilon(double rho, double delta) {
  HDMM_CHECK_MSG(std::isfinite(rho) && rho >= 0.0,
                 "rho must be non-negative and finite");
  HDMM_CHECK_MSG(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  if (rho == 0.0) return 0.0;
  return rho + 2.0 * std::sqrt(rho * std::log(1.0 / delta));
}

double RhoFromEpsilonDelta(double epsilon, double delta) {
  HDMM_CHECK_MSG(std::isfinite(epsilon) && epsilon > 0.0,
                 "epsilon must be positive and finite");
  HDMM_CHECK_MSG(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
  // Solve rho + 2 sqrt(rho L) = eps for rho with L = ln(1/delta): quadratic
  // in s = sqrt(rho), s^2 + 2 s sqrt(L) - eps = 0, positive root
  // s = sqrt(L + eps) - sqrt(L).
  const double l = std::log(1.0 / delta);
  const double s = std::sqrt(l + epsilon) - std::sqrt(l);
  return s * s;
}

double PureDpToRho(double epsilon) {
  HDMM_CHECK_MSG(std::isfinite(epsilon) && epsilon > 0.0,
                 "epsilon must be positive and finite");
  return 0.5 * epsilon * epsilon;
}

}  // namespace hdmm
