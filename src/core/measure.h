// The MEASURE step (Table 1b): the Laplace noise scale of Definition 6.
// Strategy::Measure draws the noise; this header only validates and
// computes its scale.
#ifndef HDMM_CORE_MEASURE_H_
#define HDMM_CORE_MEASURE_H_

#include <cmath>

#include "common/check.h"

namespace hdmm {

/// Noise scale sigma_A = sensitivity / epsilon of Definition 6, used by
/// Strategy::Measure. Dies unless epsilon and the sensitivity are both
/// positive and finite: a NaN/inf/zero noise scale silently voids the
/// privacy guarantee, so it is a contract violation, never a sampled value.
inline double LaplaceScale(double sensitivity, double epsilon) {
  HDMM_CHECK_MSG(std::isfinite(epsilon) && epsilon > 0.0,
                 "epsilon must be positive and finite");
  HDMM_CHECK_MSG(std::isfinite(sensitivity) && sensitivity > 0.0,
                 "sensitivity must be positive and finite");
  return sensitivity / epsilon;
}

}  // namespace hdmm

#endif  // HDMM_CORE_MEASURE_H_
