// OPT_M (Problem 4, Section 6.3) and the closed marginals algebra of
// Appendix A.4. Strategies are weighted sets of marginals M(theta),
// theta in R^{2^d}_+. The paper inverts M^T M through a 2^d x 2^d
// triangular system, which costs O(4^d); here the objective, its gradient and
// the error are evaluated in the algebra's joint eigenbasis in O(d 2^d) time
// and O(2^d) memory, independent of the attribute domain sizes.
#ifndef HDMM_CORE_OPT_MARGINALS_H_
#define HDMM_CORE_OPT_MARGINALS_H_

#include <cstdint>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "optimize/lbfgsb.h"
#include "workload/workload.h"

namespace hdmm {

/// The closed algebra over matrices G(v) = sum_a v_a C(a), where
/// C(a) = kron_i (I if bit_i(a) else 1) — Propositions 3 and 4 of the paper.
/// The paper multiplies and inverts in the basis {C(a)} (O(4^d)). Every C(a)
/// is diagonal in one joint eigenbasis instead: per attribute, P_i = 11^T/n_i
/// and Q_i = I - P_i; for attribute subsets U the eigenspaces are
/// E_U = kron_i (Q_i if i in U else P_i), and C(a) = c(a) sum_{U subset a} E_U.
/// Hence M(theta)^T M(theta) = sum_U a_U E_U (Eigenvalues) and its
/// pseudo-inverse is sum_{a_U > 0} E_U / a_U.
class MarginalsAlgebra {
 public:
  explicit MarginalsAlgebra(std::vector<int64_t> attr_sizes);

  int d() const { return d_; }
  uint32_t num_masks() const { return uint32_t{1} << d_; }
  const std::vector<int64_t>& attr_sizes() const { return sizes_; }

  /// c(m) = prod_{i : bit_i(m) = 0} n_i  (Proposition 3's scalar).
  double CWeight(uint32_t mask) const {
    return cweight_[static_cast<size_t>(mask)];
  }

  /// Eigenvalues of M(theta)^T M(theta) = sum_U a_U E_U:
  /// a_U = sum_{S superset of U} theta_S^2 c(S), one superset-sum transform.
  Vector Eigenvalues(const Vector& theta) const;

  /// Eigenspace traces gamma_U = tr[E_U W^T W] = sum_j w_j^2
  /// prod_{i in U} (||F_ji||_F^2 - ||F_ji 1||^2 / n_i)
  /// prod_{i not in U} ||F_ji 1||^2 / n_i, from the workload's cached
  /// FactorStats (a Total-like factor contributes exactly 0 on Q_i; rounding
  /// below 0 is clamped to 0). Computed once per workload, O(2^d) per product.
  Vector EigenspaceTraces(const UnionWorkload& w) const;

  /// tr[(M(theta)^T M(theta))^+ W^T W] = sum_{gamma_U > 0} gamma_U / a_U given
  /// gamma = EigenspaceTraces(w); +infinity when some gamma_U > 0 has
  /// a_U = 0, i.e. M(theta) does not support W. When `grad` is non-null and
  /// the trace is finite, it receives the gradient
  /// dT/dtheta_S = -2 theta_S c(S) sum_{U subset S} gamma_U / a_U^2 (one
  /// subset-sum transform); at +infinity it is zeroed.
  double TraceObjective(const Vector& theta, const Vector& gamma,
                        Vector* grad = nullptr) const;

 private:
  int d_;
  std::vector<int64_t> sizes_;
  Vector cweight_;
};

/// Options for OPT_M.
struct OptMarginalsOptions {
  LbfgsbOptions lbfgs;
  /// Lower bound on theta_{2^d}. A serving policy, not a numerical need:
  /// the full table stays measured, so the plan supports every query.
  double min_full_weight = 1e-4;
  /// Start from the workload's own marginals (a very strong basin); disable
  /// to start from theta ~ U[0, 1) drawn from rng->Fork(0), as pure random
  /// restarts do (Figure 3).
  bool workload_aware_init = true;
};

/// Result of OPT_M.
struct OptMarginalsResult {
  Vector theta;        ///< 2^d marginal weights.
  double error = 0.0;  ///< (sum theta)^2 * ||W M(theta)^+||_F^2.
};

/// Optimizes the weighted-marginals strategy for a union-of-products
/// workload. The sensitivity constraint is folded into the objective
/// (sum theta_i)^2 * ||W M(theta)^+||_F^2 exactly as in Problem 4. One
/// L-BFGS-B run; its result is kept only if it beats theta = e_full (the
/// full contingency table). Random restarts are the caller's.
OptMarginalsResult OptMarginals(const UnionWorkload& w,
                                const OptMarginalsOptions& options, Rng* rng);

}  // namespace hdmm

#endif  // HDMM_CORE_OPT_MARGINALS_H_
