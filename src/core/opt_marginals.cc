#include "core/opt_marginals.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

namespace hdmm {

MarginalsAlgebra::MarginalsAlgebra(std::vector<int64_t> attr_sizes)
    : d_(static_cast<int>(attr_sizes.size())), sizes_(std::move(attr_sizes)) {
  HDMM_CHECK_MSG(d_ >= 1 && d_ <= 20, "marginals algebra supports d in [1,20]");
  const uint32_t masks = num_masks();
  cweight_.resize(masks);
  for (uint32_t m = 0; m < masks; ++m) {
    double c = 1.0;
    for (int i = 0; i < d_; ++i) {
      if (((m >> i) & 1u) == 0) c *= static_cast<double>(sizes_[static_cast<size_t>(i)]);
    }
    cweight_[m] = c;
  }
}

Vector MarginalsAlgebra::Eigenvalues(const Vector& theta) const {
  const uint32_t masks = num_masks();
  HDMM_CHECK(theta.size() == masks);
  Vector a(masks);
  for (uint32_t s = 0; s < masks; ++s) a[s] = theta[s] * theta[s] * cweight_[s];
  for (int i = 0; i < d_; ++i) {
    const uint32_t bit = uint32_t{1} << i;
    for (uint32_t u = 0; u < masks; ++u) {
      if (!(u & bit)) a[u] += a[u | bit];
    }
  }
  return a;
}

Vector MarginalsAlgebra::EigenspaceTraces(const UnionWorkload& w) const {
  HDMM_CHECK(w.domain().NumAttributes() == d_);
  const uint32_t masks = num_masks();
  Vector gamma(masks, 0.0);
  Vector term(masks);
  for (int j = 0; j < w.NumProducts(); ++j) {
    // tr(P_i G) = 1^T G 1 / n_i = ||F 1||^2 / n_i and tr(Q_i G) = tr(G) -
    // tr(P_i G) = ||F||_F^2 - ||F 1||^2 / n_i for the factor Gram G = F^T F;
    // the product over attributes expands one attribute at a time.
    const double weight = w.products()[static_cast<size_t>(j)].weight;
    term[0] = weight * weight;
    for (int i = 0; i < d_; ++i) {
      const FactorStats& stats = w.Stats(j, i);
      const double p = stats.row_sum_sq /
                       static_cast<double>(sizes_[static_cast<size_t>(i)]);
      const double q =
          stats.total_like ? 0.0 : std::max(0.0, stats.frobenius_sq - p);
      const uint32_t half = uint32_t{1} << i;
      for (uint32_t u = 0; u < half; ++u) {
        term[u | half] = term[u] * q;
        term[u] *= p;
      }
    }
    for (uint32_t u = 0; u < masks; ++u) gamma[u] += term[u];
  }
  return gamma;
}

double MarginalsAlgebra::TraceObjective(const Vector& theta,
                                        const Vector& gamma,
                                        Vector* grad) const {
  const uint32_t masks = num_masks();
  HDMM_CHECK(gamma.size() == masks);
  const Vector a = Eigenvalues(theta);
  double tr = 0.0;
  // r_U = gamma_U / a_U^2, the gradient's per-eigenspace weight.
  Vector r(grad != nullptr ? masks : 0, 0.0);
  for (uint32_t u = 0; u < masks; ++u) {
    if (!(gamma[u] > 0.0)) continue;
    if (!(a[u] > 0.0)) {
      if (grad != nullptr) grad->assign(masks, 0.0);
      return std::numeric_limits<double>::infinity();
    }
    tr += gamma[u] / a[u];
    if (grad != nullptr) r[u] = gamma[u] / (a[u] * a[u]);
  }
  if (grad != nullptr) {
    for (int i = 0; i < d_; ++i) {
      const uint32_t bit = uint32_t{1} << i;
      for (uint32_t s = 0; s < masks; ++s) {
        if (s & bit) r[s] += r[s ^ bit];
      }
    }
    grad->resize(masks);
    for (uint32_t s = 0; s < masks; ++s) {
      (*grad)[s] = -2.0 * theta[s] * cweight_[s] * r[s];
    }
  }
  return tr;
}

OptMarginalsResult OptMarginals(const UnionWorkload& w,
                                const OptMarginalsOptions& options, Rng* rng) {
  MarginalsAlgebra algebra(w.domain().sizes());
  const uint32_t masks = algebra.num_masks();
  const Vector gamma = algebra.EigenspaceTraces(w);

  // Objective (Problem 4): (sum theta)^2 * T(theta), T = TraceObjective.
  Vector trace_grad;
  ObjectiveFn fn = [&](const Vector& theta, Vector* grad) -> double {
    const double s = Sum(theta);
    const double t = s > 0.0 ? algebra.TraceObjective(
                                   theta, gamma,
                                   grad != nullptr ? &trace_grad : nullptr)
                             : std::numeric_limits<double>::infinity();
    const double obj = s * s * t;
    if (!std::isfinite(obj)) {
      if (grad != nullptr) grad->assign(theta.size(), 0.0);
      return std::numeric_limits<double>::infinity();
    }
    if (grad != nullptr) {
      grad->resize(masks);
      for (uint32_t a = 0; a < masks; ++a) {
        (*grad)[a] = 2.0 * s * t + s * s * trace_grad[a];
      }
    }
    return obj;
  };

  // The objective is invariant to rescaling theta (both (sum theta)^2 and
  // the inverse eigenvalues scale oppositely), so bounding the box loses no
  // generality.
  Vector lower(masks, 0.0);
  lower[masks - 1] = options.min_full_weight;
  Vector upper(masks, 1e3);

  OptMarginalsResult best;
  // Deterministic fallback: theta = e_full (measure the full contingency
  // table, i.e. the identity strategy). Guarantees OPT_M never regresses
  // below the Algorithm 2 identity baseline on marginal workloads.
  best.theta.assign(masks, 0.0);
  best.theta[masks - 1] = 1.0;
  best.error = algebra.TraceObjective(best.theta, gamma);

  // One run; Algorithm 2's restarts are OptimizeStrategy's grid, which hands
  // every job its own stream. The random start is drawn from Fork(0) rather
  // than from `rng` itself so that plans stay bit-identical to those of
  // builds whose OPT_M ran its own restarts (restart 0 drew from Fork(0)).
  Vector theta0(masks);
  if (options.workload_aware_init) {
    // Workload-aware start: a marginal strategy that measures roughly what
    // the workload asks is an excellent basin. Weight the workload's own
    // marginals, tiny weight elsewhere.
    theta0.assign(masks, 0.01);
    for (const ProductWorkload& prod : w.products()) {
      uint32_t mask = 0;
      for (int i = 0; i < w.domain().NumAttributes(); ++i) {
        if (prod.factors[static_cast<size_t>(i)].rows() > 1) mask |= (1u << i);
      }
      theta0[mask] = 1.0;
    }
  } else {
    Rng child = rng->Fork(0);
    for (uint32_t a = 0; a < masks; ++a) theta0[a] = child.Uniform(0.0, 1.0);
  }
  theta0[masks - 1] = std::max(theta0[masks - 1], 0.1);

  LbfgsbResult res =
      MinimizeLbfgsb(fn, std::move(theta0), lower, upper, options.lbfgs);
  if (res.f < best.error) {
    best.error = res.f;
    best.theta = std::move(res.x);
  }
  return best;
}

}  // namespace hdmm
