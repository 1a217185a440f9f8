// Box-constrained limited-memory BFGS. The paper's implementation uses
// scipy.optimize's L-BFGS-B for every optimization routine (Section 8.1);
// this is the equivalent substrate, implemented from scratch: projected
// gradient active sets + two-loop recursion + Armijo backtracking along the
// projected path.
#ifndef HDMM_OPTIMIZE_LBFGSB_H_
#define HDMM_OPTIMIZE_LBFGSB_H_

#include <functional>
#include <limits>

#include "common/deadline.h"
#include "linalg/vector_ops.h"

namespace hdmm {

/// Objective callback: returns f(x) and, when grad is non-null, writes the
/// gradient into *grad (same size as x). The optimizer passes a null grad
/// for line-search trials and asks for the gradient once per accepted
/// point, so f(x) must come out the same whether or not grad is null.
using ObjectiveFn = std::function<double(const Vector& x, Vector* grad)>;

/// Options controlling the optimizer.
struct LbfgsbOptions {
  int max_iterations = 400;
  double pg_tolerance = 1e-6; ///< Stop when ||projected gradient||_inf small.
  /// Polled once per iteration; when signalled the run stops early with
  /// `stopped = true` and the best iterate so far. Not owned; may be null.
  /// Excluded from plan fingerprints (they hash the numeric fields only).
  const CancelToken* cancel = nullptr;
};

/// Result of a minimization run.
struct LbfgsbResult {
  Vector x;
  double f = std::numeric_limits<double>::infinity();
  int iterations = 0;
  int function_evaluations = 0;  ///< Points evaluated, trials included.
  int gradient_evaluations = 0;  ///< The start plus one per accepted step.
  bool converged = false;
  bool stopped = false;  ///< Cut short by options.cancel; x is best-so-far.
};

/// Minimizes f over the box [lower_i, upper_i]^n starting from x0 (which is
/// clamped into the box). Use -inf/+inf entries for unbounded coordinates.
LbfgsbResult MinimizeLbfgsb(const ObjectiveFn& f, Vector x0,
                            const Vector& lower, const Vector& upper,
                            const LbfgsbOptions& options = LbfgsbOptions());

/// Convenience: non-negativity constraint only (lower = 0, upper = +inf),
/// the constraint set used by OPT_0 (Theta >= 0) and OPT_M (theta >= 0).
LbfgsbResult MinimizeNonNegative(const ObjectiveFn& f, Vector x0,
                                 const LbfgsbOptions& options =
                                     LbfgsbOptions());

}  // namespace hdmm

#endif  // HDMM_OPTIMIZE_LBFGSB_H_
