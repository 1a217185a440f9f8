// OPT_x (Definition 10 / Problem 3): strategy optimization for (unions of)
// product workloads, decomposed into per-attribute OPT_0 problems. For unions
// the coupled problem is solved block-cyclically with the surrogate workload
// of Equation 6.
#ifndef HDMM_CORE_OPT_KRON_H_
#define HDMM_CORE_OPT_KRON_H_

#include <vector>

#include "common/rng.h"
#include "core/opt0.h"
#include "workload/workload.h"

namespace hdmm {

/// Options for OPT_x.
struct OptKronOptions {
  /// Per-attribute p; empty = the Section 7.1 convention (1 for T/I-only
  /// attributes, n_i/16 otherwise).
  std::vector<int> p;
  int max_cycles = 8;  ///< Block-cyclic passes over the attributes.
  LbfgsbOptions lbfgs;
};

/// Result of OPT_x: one strategy factor per attribute.
struct OptKronResult {
  /// A_i = A(Theta_i), the p_i-Identity strategy OPT_0 found for attribute
  /// i, or the Total block 1^T on a Total-only attribute.
  std::vector<Matrix> factors;
  /// sum_j w_j^2 prod_i ||W_i^(j) A_i^+||_F^2 — the Theorem 6 objective for
  /// the sensitivity-1 product strategy A = A_1 x ... x A_d.
  double error = 0.0;
};

/// Runs OPT_x on a (union of) product workload: one block-cyclic run from
/// Theta_i ~ U[0, 0.5) drawn from rng->Fork(0). Random restarts are the
/// caller's (OptimizeStrategy's grid gives each job its own stream).
///
/// An attribute on which every product asks only Total queries (every entry
/// of its factors is 1) takes the factor 1^T in closed form: its Grams are
/// r * 11^T, and 1^T meets the spectral lower bound on each product's trace
/// (r), which no p-Identity strategy attains. It runs no OPT_0; its Theta is
/// still drawn, so every other attribute starts where it would without the
/// closed form.
OptKronResult OptKron(const UnionWorkload& w, const OptKronOptions& options,
                      Rng* rng);

/// OPT_x over the products of `w` listed in `products` (in that order), as
/// if they were copied into a workload of their own: OPT_+ runs each group
/// this way, reading the parent workload's factors and factor keys in place.
OptKronResult OptKron(const UnionWorkload& w, const std::vector<int>& products,
                      const OptKronOptions& options, Rng* rng);

/// The Section 7.1 p-convention for attribute i over the listed products of
/// a union workload.
int AttributeDefaultP(const UnionWorkload& w, const std::vector<int>& products,
                      int attribute);

}  // namespace hdmm

#endif  // HDMM_CORE_OPT_KRON_H_
