#include "optimize/lbfgsb.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "common/check.h"

// No FMA contraction in this file. GCC vectorizes the in-order reductions
// below (gd, sy, the two-loop dots) with a scalar peel up to the vector
// alignment; the peeled iterations are contracted to fused multiply-adds
// and the vector body is not, so how many terms round through an FMA
// depended on where the heap placed each Vector. Plans then varied with
// unrelated allocations. Separate multiplies and adds make every iterate a
// pure function of the inputs. (A per-file build flag would not reach
// builds that compile src/ with their own flags; std::fma is a libm call
// without -march support for FMA.)
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace hdmm {
namespace {

constexpr size_t kHistory = 10;       // (s, y) correction pairs kept.
constexpr double kFTolerance = 1e-10; // Stop on relative objective change.
constexpr int kMaxLineSearch = 30;    // Backtracking steps per iteration.
constexpr double kArmijoC1 = 1e-4;    // Sufficient-decrease constant.

void ClampToBox(const Vector& lower, const Vector& upper, Vector* x) {
  for (size_t i = 0; i < x->size(); ++i) {
    if ((*x)[i] < lower[i]) (*x)[i] = lower[i];
    if ((*x)[i] > upper[i]) (*x)[i] = upper[i];
  }
}

// Infinity norm of the projected gradient: the first-order optimality
// measure for box-constrained problems.
double ProjectedGradientNorm(const Vector& x, const Vector& g,
                             const Vector& lower, const Vector& upper) {
  double m = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double step = x[i] - g[i];
    if (step < lower[i]) step = lower[i];
    if (step > upper[i]) step = upper[i];
    m = std::max(m, std::fabs(x[i] - step));
  }
  return m;
}

struct Correction {
  Vector s;
  Vector y;
  double rho;  // 1 / (y^T s)
};

// Two-loop recursion: writes d = -H g over the free variables, listed in
// ascending order in `free` so every dot product adds its terms in index
// order; fixed variables get d_i = -0. `alpha` is caller-owned scratch.
void LbfgsDirection(const std::deque<Correction>& hist, const Vector& g,
                    const std::vector<size_t>& free,
                    std::vector<double>* alpha, Vector* d) {
  Vector& q = *d;
  std::fill(q.begin(), q.end(), 0.0);
  for (size_t i : free) q[i] = g[i];
  alpha->resize(hist.size());
  for (size_t k = hist.size(); k-- > 0;) {
    const Correction& c = hist[k];
    double a = 0.0;
    for (size_t i : free) a += c.s[i] * q[i];
    a *= c.rho;
    (*alpha)[k] = a;
    for (size_t i : free) q[i] -= a * c.y[i];
  }
  double gamma = 1.0;
  if (!hist.empty()) {
    const Correction& last = hist.back();
    double yy = 0.0, sy = 0.0;
    for (size_t i : free) {
      yy += last.y[i] * last.y[i];
      sy += last.s[i] * last.y[i];
    }
    if (yy > 0.0 && sy > 0.0) gamma = sy / yy;
  }
  for (double& v : q) v *= gamma;
  for (size_t k = 0; k < hist.size(); ++k) {
    const Correction& c = hist[k];
    double b = 0.0;
    for (size_t i : free) b += c.y[i] * q[i];
    b *= c.rho;
    for (size_t i : free) q[i] += ((*alpha)[k] - b) * c.s[i];
  }
  for (double& v : q) v = -v;
}

}  // namespace

LbfgsbResult MinimizeLbfgsb(const ObjectiveFn& f, Vector x0,
                            const Vector& lower, const Vector& upper,
                            const LbfgsbOptions& options) {
  const size_t n = x0.size();
  HDMM_CHECK(lower.size() == n && upper.size() == n);
  ClampToBox(lower, upper, &x0);

  LbfgsbResult result;
  result.x = std::move(x0);

  Vector g(n, 0.0);
  double fx = f(result.x, &g);
  ++result.function_evaluations;
  ++result.gradient_evaluations;
  result.f = fx;

  std::deque<Correction> hist;
  std::vector<size_t> free;
  free.reserve(n);
  std::vector<double> alpha;
  Vector d(n), x_new(n), g_new(n, 0.0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    if (CancelRequested(options.cancel)) {
      result.stopped = true;
      break;
    }
    result.iterations = iter + 1;
    double pg = ProjectedGradientNorm(result.x, g, lower, upper);
    if (pg <= options.pg_tolerance) {
      result.converged = true;
      break;
    }

    // Active set: variables pinned at a bound with the gradient pushing
    // further out of the box are frozen for this iteration.
    constexpr double kActiveTol = 1e-12;
    free.clear();
    for (size_t i = 0; i < n; ++i) {
      bool at_lower = result.x[i] <= lower[i] + kActiveTol && g[i] > 0.0;
      bool at_upper = result.x[i] >= upper[i] - kActiveTol && g[i] < 0.0;
      if (!(at_lower || at_upper)) free.push_back(i);
    }

    LbfgsDirection(hist, g, free, &alpha, &d);
    // Fall back to steepest descent if d is not a descent direction.
    double gd = 0.0;
    for (size_t i : free) gd += g[i] * d[i];
    if (!(gd < 0.0)) {
      std::fill(d.begin(), d.end(), 0.0);
      for (size_t i : free) d[i] = -g[i];
      gd = 0.0;
      for (size_t i : free) gd += g[i] * d[i];
      if (!(gd < 0.0)) {
        result.converged = true;  // No descent available: KKT point.
        break;
      }
    }

    // Backtracking Armijo along the projected path.
    double step = 1.0;
    bool accepted = false;
    double f_new = fx;
    for (int ls = 0; ls < kMaxLineSearch; ++ls) {
      for (size_t i = 0; i < n; ++i) x_new[i] = result.x[i] + step * d[i];
      ClampToBox(lower, upper, &x_new);
      // Trials need only the objective: most are rejected, and the gradient
      // is most of an evaluation's cost. It is computed once, below.
      f_new = f(x_new, nullptr);
      ++result.function_evaluations;
      // Directional decrease measured against the realized (projected) step.
      double decrease = 0.0;
      for (size_t i = 0; i < n; ++i)
        decrease += g[i] * (x_new[i] - result.x[i]);
      if (std::isfinite(f_new) &&
          f_new <= fx + kArmijoC1 * decrease) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) {
      result.converged = true;  // Line search stalled near a minimum.
      break;
    }
    // The gradient at the accepted point. Objectives compute f the same way
    // with or without a gradient, so the value it returns again is f_new.
    f(x_new, &g_new);
    ++result.gradient_evaluations;

    // Curvature update.
    Correction c;
    c.s.resize(n);
    c.y.resize(n);
    double sy = 0.0;
    for (size_t i = 0; i < n; ++i) {
      c.s[i] = x_new[i] - result.x[i];
      c.y[i] = g_new[i] - g[i];
      sy += c.s[i] * c.y[i];
    }
    double ss = Norm2Squared(c.s), yy = Norm2Squared(c.y);
    if (sy > 1e-10 * std::sqrt(ss * yy) && sy > 0.0) {
      c.rho = 1.0 / sy;
      hist.push_back(std::move(c));
      if (hist.size() > kHistory) hist.pop_front();
    }

    double f_prev = fx;
    std::swap(result.x, x_new);
    std::swap(g, g_new);
    fx = f_new;
    result.f = fx;
    if (std::fabs(f_prev - fx) <=
        kFTolerance * std::max(1.0, std::fabs(f_prev))) {
      result.converged = true;
      break;
    }
  }
  result.f = fx;
  return result;
}

LbfgsbResult MinimizeNonNegative(const ObjectiveFn& f, Vector x0,
                                 const LbfgsbOptions& options) {
  const size_t n = x0.size();
  Vector lower(n, 0.0);
  Vector upper(n, std::numeric_limits<double>::infinity());
  return MinimizeLbfgsb(f, std::move(x0), lower, upper, options);
}

}  // namespace hdmm
