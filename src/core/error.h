// Expected-error computation and comparison helpers (Definition 7 and the
// error-ratio metric of Section 8.1).
#ifndef HDMM_CORE_ERROR_H_
#define HDMM_CORE_ERROR_H_

#include "core/strategy.h"
#include "workload/workload.h"

namespace hdmm {

/// ||A||_1^2 * ||W A^+||_F^2 for explicit matrices (small domains).
double ExplicitSquaredError(const Matrix& w, const Matrix& a);

/// Ratio(W, K_other) = sqrt(Err(W, K_other) / Err(W, K_hdmm)), the metric of
/// Table 3/4/5. Independent of epsilon.
double ErrorRatio(const UnionWorkload& w, const Strategy& other,
                  const Strategy& reference);

/// Empirical total squared error of one mechanism run: given true workload
/// answers and reconstructed answers, sum of squared differences. Used for
/// the data-dependent algorithms (DAWA, PrivBayes) whose expected error has
/// no closed form (Section 8.1).
double EmpiricalSquaredError(const Vector& truth, const Vector& estimate);

}  // namespace hdmm

#endif  // HDMM_CORE_ERROR_H_
