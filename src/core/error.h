// Expected-error computation helpers (Definition 7) and the empirical error
// of Section 8.1.
#ifndef HDMM_CORE_ERROR_H_
#define HDMM_CORE_ERROR_H_

#include "core/strategy.h"
#include "workload/workload.h"

namespace hdmm {

/// ||A||_1^2 * ||W A^+||_F^2 for explicit matrices (small domains).
double ExplicitSquaredError(const Matrix& w, const Matrix& a);

/// Empirical total squared error of one mechanism run: given true workload
/// answers and reconstructed answers, sum of squared differences. Used for
/// the data-dependent algorithms (DAWA, PrivBayes) whose expected error has
/// no closed form (Section 8.1).
double EmpiricalSquaredError(const Vector& truth, const Vector& estimate);

}  // namespace hdmm

#endif  // HDMM_CORE_ERROR_H_
