// OPT_M (Problem 4, Section 6.3) and the closed marginals algebra of
// Appendix A.4. Strategies are weighted sets of marginals M(theta),
// theta in R^{2^d}_+, and both the objective and its gradient are evaluated
// in O(4^d) time independent of the attribute domain sizes.
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
/// Products stay inside the algebra: G(u) G(v) = G(X(u) v) with X(u) upper
/// triangular, which yields O(4^d) inverses via one triangular solve.
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

  /// The triangular matrix X(u) with G(u) G(v) = G(X(u) v) (Proposition 4):
  /// X(u)[k, b] = sum_{a : a & b = k} u_a c(a | b).
  Matrix BuildX(const Vector& u) const;

  /// Solves X(u) v = e_{full}: then G(v) = G(u)^{-1}. Requires u_full > 0
  /// (which makes X(u) nonsingular). For a strategy M(theta),
  /// (M^T M) = G(theta^2) and hence (M^T M)^{-1} = G(v).
  Vector InverseWeights(const Vector& u) const;

  /// Per-mask workload statistics tau_a = sum_j w_j^2 *
  /// prod_i (bit_i(a) ? tr(G_i^(j)) : sum(G_i^(j))), so that
  /// tr[G(v) W^T W] = v . tau. Precomputed once per workload; cost linear
  /// in the number of products (Section 6.3).
  Vector WorkloadTraceVector(const UnionWorkload& w) const;

  /// tr[(M(theta)^T M(theta))^{-1} W^T W] given tau = WorkloadTraceVector.
  /// Dies if theta_full <= 0.
  double TraceObjective(const Vector& theta, const Vector& tau) const;

 private:
  int d_;
  std::vector<int64_t> sizes_;
  Vector cweight_;
};

/// Options for OPT_M.
struct OptMarginalsOptions {
  LbfgsbOptions lbfgs;
  double min_full_weight = 1e-4;  ///< Lower bound keeping theta_{2^d} > 0.
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
