#include "core/pidentity.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/pinv.h"

namespace hdmm {
namespace {

// Column scale factors s_j = 1 + sum_i Theta_ij (the inverse of D's diagonal).
Vector ColumnScales(const Matrix& theta) {
  Vector s(static_cast<size_t>(theta.cols()), 1.0);
  for (int64_t i = 0; i < theta.rows(); ++i) {
    const double* row = theta.Row(i);
    for (int64_t j = 0; j < theta.cols(); ++j) s[static_cast<size_t>(j)] += row[j];
  }
  return s;
}

// M = I_p + Theta Theta^T (p x p), the Woodbury capacitance matrix. The
// outer-SYRK kernel computes one triangle and mirrors, so M is exactly
// symmetric -- which the Cholesky factorization downstream relies on.
Matrix Capacitance(const Matrix& theta) {
  Matrix m = GramOuter(theta);
  for (int64_t i = 0; i < m.rows(); ++i) m(i, i) += 1.0;
  return m;
}

// Scales the rows (axis == 0) or columns (axis == 1) of `m` by `scale`.
Matrix ScaledCopy(const Matrix& m, const Vector& scale, int axis) {
  Matrix out = m;
  if (axis == 0) {
    HDMM_CHECK(static_cast<int64_t>(scale.size()) == m.rows());
    for (int64_t i = 0; i < m.rows(); ++i) {
      double s = scale[static_cast<size_t>(i)];
      double* row = out.Row(i);
      for (int64_t j = 0; j < m.cols(); ++j) row[j] *= s;
    }
  } else {
    HDMM_CHECK(static_cast<int64_t>(scale.size()) == m.cols());
    for (int64_t i = 0; i < m.rows(); ++i) {
      double* row = out.Row(i);
      for (int64_t j = 0; j < m.cols(); ++j)
        row[j] *= scale[static_cast<size_t>(j)];
    }
  }
  return out;
}

// Workspace variant of ScaledCopy's column scaling: writes src * diag(scale)
// into a reusable destination without allocating once the destination has
// the right shape.
void EnsureShape(Matrix* m, int64_t rows, int64_t cols) {
  if (m->rows() != rows || m->cols() != cols) *m = Matrix(rows, cols);
}

void ScaleColumnsInto(const Matrix& src, const Vector& scale, Matrix* dst) {
  EnsureShape(dst, src.rows(), src.cols());
  for (int64_t i = 0; i < src.rows(); ++i) {
    const double* in = src.Row(i);
    double* out = dst->Row(i);
    for (int64_t j = 0; j < src.cols(); ++j)
      out[j] = in[j] * scale[static_cast<size_t>(j)];
  }
}

// Trust floor for the Woodbury fast path, as a fraction of term1 (the
// positive part of the cancelling subtraction). The subtraction's noise is
// governed by the capacitance solve: with condition number kappa(M) the
// computed trace carries ~ kappa * eps * term1 of error, and kappa grows like
// max(Theta)^2. sqrt(eps) ~ 1.5e-8 is the break-even point for
// kappa ~ 1e8 (Theta entries ~ 1e4, which gradient ascent does reach on
// range-type workloads); one order of margin on top of that. Values below
// the floor are treated as pure cancellation: Eval reports the point as
// infeasible (the line search backs off) and TraceWithGram falls back to the
// backward-stable dense path.
constexpr double kFastPathTrustFloor = 1e-7;

}  // namespace

PIdentityObjective::PIdentityObjective(Matrix gram, int p, GemmParallelism par)
    : gram_(std::move(gram)), p_(p), par_(par) {
  HDMM_CHECK(gram_.rows() == gram_.cols());
  HDMM_CHECK(p_ >= 1);
  gram_diag_.resize(static_cast<size_t>(gram_.rows()));
  for (int64_t j = 0; j < gram_.rows(); ++j)
    gram_diag_[static_cast<size_t>(j)] = gram_(j, j);
}

double PIdentityObjective::Eval(const Vector& theta_flat, Vector* grad_flat) {
  HDMM_CHECK(static_cast<int64_t>(theta_flat.size()) == p_ * gram_.rows());
  // L-BFGS-B evaluates a trial without a gradient and, once it accepts the
  // trial, asks for the gradient at the same point. The workspace still
  // holds that point's terms then, so only the gradient is computed.
  const bool same_point =
      std::isfinite(objective_) &&
      theta_.size() == static_cast<int64_t>(theta_flat.size()) &&
      std::memcmp(theta_flat.data(), theta_.data(),
                  theta_flat.size() * sizeof(double)) == 0;
  if (!same_point) objective_ = Objective(theta_flat);
  if (!std::isfinite(objective_)) {
    if (grad_flat != nullptr) grad_flat->assign(theta_flat.size(), 0.0);
    return objective_;
  }
  if (grad_flat != nullptr) Gradient(grad_flat);
  return objective_;
}

double PIdentityObjective::Objective(const Vector& theta_flat) {
  const int64_t n = gram_.rows();
  EnsureShape(&theta_, p_, n);
  std::copy(theta_flat.begin(), theta_flat.end(), theta_.data());

  // s_j = 1/d_j, computed into the hoisted workspace vectors.
  s_.assign(static_cast<size_t>(n), 1.0);
  for (int64_t i = 0; i < p_; ++i) {
    const double* row = theta_.Row(i);
    for (int64_t j = 0; j < n; ++j) s_[static_cast<size_t>(j)] += row[j];
  }
  d_.resize(s_.size());
  for (size_t j = 0; j < s_.size(); ++j) d_[j] = 1.0 / s_[j];

  // Capacitance M = I_p + Theta Theta^T; exact symmetry from the SYRK
  // mirror, which the Cholesky below relies on.
  GramOuterInto(theta_, &m_, par_);
  for (int64_t i = 0; i < p_; ++i) m_(i, i) += 1.0;
  if (!CholeskyFactor(m_, &l_)) {
    // Numerically indefinite capacitance: treat as an infeasible point.
    return std::numeric_limits<double>::infinity();
  }

  // --- Objective: tr[X^{-1} G] with X^{-1} = S (I - Theta^T M^{-1} Theta) S,
  //     S = diag(s). (Appendix A.3.)
  // term1 = sum_j s_j^2 G_jj (diag(G) hoisted at construction).
  double term1 = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    const double sj = s_[static_cast<size_t>(j)];
    term1 += sj * sj * gram_diag_[static_cast<size_t>(j)];
  }
  // T1 = Theta * S, B = T1 * G, Spp = B * T1^T; term2 = tr[M^{-1} Spp].
  ScaleColumnsInto(theta_, s_, &t1_);
  MatMulInto(t1_, gram_, &b_, par_);
  MatMulNTInto(b_, t1_, &spp_, par_);
  CholeskySolveMatrixInto(l_, spp_, &z_);
  double objective = term1 - z_.Trace();
  // The exact objective is strictly positive and bounded by term1 (since
  // X^{-1} is dominated by D^{-2}); the subtraction's noise scales with the
  // capacitance solve's conditioning (see kFastPathTrustFloor). Values at or
  // below that noise floor are pure cancellation — treat the point as
  // infeasible so the line search backs off rather than "winning" with
  // garbage.
  if (!(objective > kFastPathTrustFloor * term1) || !std::isfinite(objective))
    return std::numeric_limits<double>::infinity();
  return objective;
}

void PIdentityObjective::Gradient(Vector* grad_flat) {
  const int64_t n = gram_.rows();
  // --- Gradient (derivation in docs/pidentity_gradient.md), from the
  // objective's own terms and E = B S = Theta S G S:
  //   dC/dTheta = -2 M^{-1} (E - Z^T Theta) + 2 * 1_p (r .* d)^T,
  //   r_j = s_j^2 G_jj - sum_i E_ij (M^{-1} Theta)_ij.
  // Every product is p x N or p x p: O(p^2 N) after the objective's GEMM.
  CholeskySolveMatrixInto(l_, theta_, &minv_theta_);
  MatMulTNInto(z_, theta_, &u_, par_);  // Z^T Theta
  r_.resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    const double sj = s_[static_cast<size_t>(j)];
    r_[static_cast<size_t>(j)] = sj * sj * gram_diag_[static_cast<size_t>(j)];
  }
  // One pass over the p x N terms: r accumulates -E .* (M^{-1} Theta) down
  // each column, and U becomes E - Z^T Theta in place.
  for (int64_t i = 0; i < p_; ++i) {
    const double* brow = b_.Row(i);
    const double* mrow = minv_theta_.Row(i);
    double* urow = u_.Row(i);
    for (int64_t j = 0; j < n; ++j) {
      const double e = brow[j] * s_[static_cast<size_t>(j)];
      r_[static_cast<size_t>(j)] -= e * mrow[j];
      urow[j] = e - urow[j];
    }
  }
  CholeskySolveMatrixInto(l_, u_, &u_);  // M^{-1} (E - Z^T Theta)

  grad_flat->resize(static_cast<size_t>(p_ * n));
  for (int64_t i = 0; i < p_; ++i) {
    const double* urow = u_.Row(i);
    double* out = grad_flat->data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      out[j] = -2.0 * urow[j] +
               2.0 * r_[static_cast<size_t>(j)] * d_[static_cast<size_t>(j)];
    }
  }
}

Matrix PIdentityObjective::BuildStrategy(const Matrix& theta) {
  const int64_t p = theta.rows();
  const int64_t n = theta.cols();
  Vector s = ColumnScales(theta);
  Matrix a(n + p, n);
  for (int64_t j = 0; j < n; ++j) a(j, j) = 1.0 / s[static_cast<size_t>(j)];
  for (int64_t i = 0; i < p; ++i)
    for (int64_t j = 0; j < n; ++j)
      a(n + i, j) = theta(i, j) / s[static_cast<size_t>(j)];
  return a;
}

double PIdentityObjective::TraceWithGram(const Matrix& theta, const Matrix& g) {
  const int64_t n = theta.cols();
  HDMM_CHECK(g.rows() == n && g.cols() == n);
  const Vector s = ColumnScales(theta);

  Matrix m = Capacitance(theta);
  Matrix l;
  if (CholeskyFactor(m, &l)) {
    double term1 = 0.0;
    for (int64_t j = 0; j < n; ++j)
      term1 += s[static_cast<size_t>(j)] * s[static_cast<size_t>(j)] * g(j, j);
    Matrix t1 = ScaledCopy(theta, s, 1);
    Matrix b = MatMul(t1, g);
    Matrix spp = MatMulNT(b, t1);
    Matrix z;
    CholeskySolveMatrixInto(l, spp, &z);
    double objective = term1 - z.Trace();
    // Fast path only trusted above the cancellation noise floor (see Eval).
    if (objective > kFastPathTrustFloor * term1 && std::isfinite(objective))
      return objective;
  }
  // The Woodbury form cancels catastrophically when the true trace is tiny
  // relative to term1 (e.g. rank-1 Grams against strategies with a heavy
  // total row). Fall back to the backward-stable dense path: form
  // X = A^T A explicitly and solve. O(n^3), evaluation-only.
  Matrix a = BuildStrategy(theta);
  Matrix x;
  GramInto(a, &x);
  Matrix lx;
  if (!CholeskyFactor(x, &lx)) return std::numeric_limits<double>::infinity();
  Matrix z;
  CholeskySolveMatrixInto(lx, g, &z);
  double tr = z.Trace();
  if (!(tr > 0.0) || !std::isfinite(tr))
    return std::numeric_limits<double>::infinity();
  return tr;
}

double PIdentityObjective::EvalReference(const Matrix& theta,
                                         const Matrix& gram) {
  Matrix a = BuildStrategy(theta);
  Matrix x;
  GramInto(a, &x);
  return TracePinvGram(x, gram);
}

}  // namespace hdmm
