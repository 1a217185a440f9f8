// Strategy diagnostics: the support constraint of Problem 1 and numerical
// health checks. A strategy A supports a workload W iff every workload query
// is a linear combination of strategy queries — W A^+ A = W — which the
// optimizers guarantee by construction (p-Identity strategies contain a
// scaled identity; OPT_M keeps theta_full >= min_full_weight) but
// user-supplied or deserialized strategies may violate. Reconstruction
// against a non-supporting strategy silently produces biased answers, so
// deployments should gate on these checks.
#ifndef HDMM_CORE_DIAGNOSTICS_H_
#define HDMM_CORE_DIAGNOSTICS_H_

#include <string>

#include "core/strategy.h"
#include "workload/workload.h"

namespace hdmm {

/// Explicit support check: ||W A^+ A - W||_max <= tol. O(N^3); for modest
/// domains or per-attribute factors.
bool SupportsWorkloadExplicit(const Matrix& w, const Matrix& a,
                              double tol = 1e-8);

/// Support check for an implicit workload against a library strategy.
///
/// * KronStrategy: exact per-factor reduction — a product workload
///   W_1 x ... x W_d is supported iff rowspace(W_i) <= rowspace(A_i) for
///   every i, so each factor is checked explicitly at per-attribute cost.
/// * MarginalsStrategy: supported when theta on the full marginal is
///   positive (M then spans the full contingency table). That is sufficient,
///   not necessary: M(theta) supports W iff a_U > 0 wherever gamma_U > 0
///   (MarginalsAlgebra), i.e. iff its SquaredError is finite.
/// * ExplicitStrategy: direct check (requires modest N).
/// * UnionKronStrategy: per-group check of the group's products against the
///   group's part (the Definition 11 inference convention).
bool SupportsWorkload(const Strategy& strategy, const UnionWorkload& w,
                      double tol = 1e-8);

/// Numerical health report for a strategy.
struct StrategyReport {
  std::string name;
  int64_t num_queries = 0;
  int64_t domain_size = 0;
  double l1_sensitivity = 0.0;   ///< Laplace calibration norm (Section 3.5).
  double l2_sensitivity = 0.0;   ///< Gaussian calibration norm.
  int64_t rank = 0;              ///< Numerical rank of A.
  double condition_number = 0.0; ///< sigma_max / sigma_min_positive.
  bool full_column_rank = false; ///< rank == domain_size: supports anything.
};

/// Builds the report. Explicit and Kron strategies are analyzed exactly
/// (Kron: rank and conditioning multiply across factors); other types are
/// expanded when N <= max_explicit_cells and die beyond it.
StrategyReport DescribeStrategy(const Strategy& strategy,
                                int64_t max_explicit_cells = (int64_t{1}
                                                              << 22));

/// Human-readable rendering of a report (used by hdmm_cli).
std::string ReportToString(const StrategyReport& report);

/// Error-vs-optimal diagnostics for a served plan: the spectral
/// (Hardt–Talwar / Li–Miklau) lower bound on Err(W, *) next to the
/// strategy's achieved Err(W, A), reduced to one percentage on the paper's
/// root-error scale. 100% certifies the plan optimal; 80% means no strategy
/// whatsoever can beat this plan's root error by more than 25%.
struct SessionDiagnostics {
  double epsilon = 0.0;
  double lower_bound_total_sq = 0.0;  ///< Bound on Err(W, *) at epsilon.
  double achieved_total_sq = 0.0;     ///< Err(W, A) for the served strategy.
  double pct_of_optimal = 0.0;  ///< 100 * sqrt(bound / achieved), in (0, 100].
  bool computable = false;  ///< False when the bound needs explicit expansion
                            ///< beyond max_explicit_cells (see note).
  std::string note;
};

/// Computes the diagnostics. The bound is implicit (no expansion) for
/// single-product workloads at any domain size; unions of products need the
/// explicit Gram spectrum, so beyond `max_explicit_cells` the result has
/// computable = false and a note instead of dying. pct_of_optimal is
/// epsilon-independent (the (2/eps^2) factor cancels), but both error
/// figures are reported at the session's epsilon for interpretability.
SessionDiagnostics DiagnoseSession(const Strategy& strategy,
                                   const UnionWorkload& w, double epsilon,
                                   int64_t max_explicit_cells = (int64_t{1}
                                                                 << 12));

}  // namespace hdmm

#endif  // HDMM_CORE_DIAGNOSTICS_H_
