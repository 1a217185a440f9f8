// p-Identity strategies (Definition 9) and the objective/gradient of
// Theorem 4 / Appendix A.3: the objective in O(pN^2), and the gradient in
// O(p^2 N) more from the objective's own terms (docs/pidentity_gradient.md).
// This is the computational kernel behind OPT_0.
//
//   A(Theta) = [I; Theta] * D,  D = diag(1_N + 1_p Theta)^{-1}
//
// so that ||A(Theta)||_1 = 1 for every non-negative Theta, and
//
//   C(A) = || W A^+ ||_F^2 = tr[(A^T A)^{-1} (W^T W)].
#ifndef HDMM_CORE_PIDENTITY_H_
#define HDMM_CORE_PIDENTITY_H_

#include <limits>

#include "linalg/gemm.h"
#include "linalg/matrix.h"

namespace hdmm {

/// Expected-error objective for p-Identity strategies against a fixed
/// workload Gram matrix G = W^T W.
///
/// Eval is the L-BFGS-B inner loop of OPT_0 and is invoked hundreds of times
/// per restart, so the instance owns a reusable workspace: every temporary
/// the evaluation needs is sized once and recycled, and after the first call
/// an Eval touches the heap zero times (with kSerial kernels; see
/// docs/performance.md, "Planner throughput"). Consequently instances are
/// NOT safe for concurrent Eval — each parallel restart owns its own
/// objective, which is exactly how OPT_0 fans out.
class PIdentityObjective {
 public:
  /// `gram` is W^T W (N x N, symmetric PSD); `p` the number of extra rows.
  /// `par` selects pooled or serial compute kernels: restarts that already
  /// run in parallel pass kSerial so the inner loop stays allocation-free
  /// and off the shared pool.
  PIdentityObjective(Matrix gram, int p,
                     GemmParallelism par = GemmParallelism::kPooled);

  int64_t n() const { return gram_.rows(); }
  int p() const { return p_; }
  const Matrix& gram() const { return gram_; }

  /// Evaluates C(A(Theta)) and, if grad != nullptr, dC/dTheta.
  /// `theta` is the p x N parameter matrix flattened row-major; the gradient
  /// uses the same layout. The objective costs one O(p N^2) GEMM (Theorem 4);
  /// the gradient adds only O(p^2 N) work on the objective's own terms.
  /// When the previous call evaluated the same point (bit for bit) and found
  /// it finite, its terms are reused and only the gradient is computed:
  /// L-BFGS-B's gradient request at an accepted trial costs no O(p N^2)
  /// work. An infeasible point returns +inf and, if requested, a zero
  /// gradient.
  double Eval(const Vector& theta_flat, Vector* grad_flat);

  /// Builds the explicit (N+p) x N strategy matrix A(Theta).
  static Matrix BuildStrategy(const Matrix& theta);

  /// tr[(A(Theta)^T A(Theta))^{-1} G] for an arbitrary symmetric G (not
  /// necessarily the cached one): used by OPT_x to evaluate per-product
  /// errors of a shared sub-strategy. O(p N^2).
  static double TraceWithGram(const Matrix& theta, const Matrix& g);

  /// Reference O(N^3) implementation of Eval's objective (for tests).
  static double EvalReference(const Matrix& theta, const Matrix& gram);

 private:
  // Fills the workspace terms for theta_flat and returns the objective, or
  // +inf for an infeasible point.
  double Objective(const Vector& theta_flat);
  // dC/dTheta at theta_ from the terms Objective left in the workspace.
  void Gradient(Vector* grad_flat);

  Matrix gram_;
  Vector gram_diag_;  ///< Hoisted diag(G): read every Eval, never changes.
  int p_;
  GemmParallelism par_;
  // C at theta_; +inf before the first Eval and after an infeasible point.
  // The workspace terms below belong to theta_ exactly when it is finite.
  double objective_ = std::numeric_limits<double>::infinity();

  // Reusable per-objective workspace (sized lazily on the first Eval).
  // Names follow the derivation in docs/pidentity_gradient.md.
  Matrix theta_;       // p x N parameter matrix (copied in from theta_flat).
  Matrix m_;           // Capacitance M = I_p + Theta Theta^T.
  Matrix l_;           // Cholesky factor of M.
  Matrix t1_;          // Theta S.
  Matrix b_;           // B = T1 G = Theta S G.
  Matrix spp_;         // Spp = B T1^T (p x p).
  Matrix z_;           // Z = M^{-1} Spp.
  Matrix minv_theta_;  // M^{-1} Theta.
  Matrix u_;           // Z^T Theta, then E - Z^T Theta, then M^{-1} of that.
  Vector s_;           // Column scales s_j = 1 + sum_i Theta_ij.
  Vector d_;           // 1 / s.
  Vector r_;           // Gradient column statistic r.
};

}  // namespace hdmm

#endif  // HDMM_CORE_PIDENTITY_H_
