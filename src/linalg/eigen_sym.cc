#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "linalg/gemm.h"

namespace hdmm {
namespace {

// Below this order the Householder pipeline's fixed costs (panel scratch, WY
// blocks) exceed the whole Jacobi run; cyclic Jacobi stays the tiny-n path.
constexpr int64_t kJacobiCutoff = 32;

// Reflectors aggregated per compact-WY block in the back-transformation.
constexpr int64_t kReflectorBlock = 32;

// Sweep cap and relative off-diagonal tolerance of the Jacobi path.
constexpr int kJacobiMaxSweeps = 64;
constexpr double kJacobiTol = 1e-12;

// Sorts eigenvalues ascending and permutes the eigenvector columns to match.
SymmetricEigen SortedResult(Vector evals, const Matrix& v) {
  const int64_t n = static_cast<int64_t>(evals.size());
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t l, int64_t r) {
    return evals[static_cast<size_t>(l)] < evals[static_cast<size_t>(r)];
  });
  SymmetricEigen out;
  out.eigenvalues.resize(static_cast<size_t>(n));
  out.eigenvectors = Matrix(n, n);
  for (int64_t i = 0; i < n; ++i) {
    int64_t src = order[static_cast<size_t>(i)];
    out.eigenvalues[static_cast<size_t>(i)] = evals[static_cast<size_t>(src)];
    for (int64_t k = 0; k < n; ++k) out.eigenvectors(k, i) = v(k, src);
  }
  return out;
}

// Cyclic Jacobi: unconditionally convergent, O(n^2) rotations per sweep.
// The off-diagonal norm used for the convergence test is accumulated from the
// entries visited during the sweep itself (pre-rotation values), so no
// separate n^2 pass over the matrix is needed per sweep.
SymmetricEigen JacobiEigenSym(const Matrix& x) {
  const int64_t n = x.rows();
  Matrix a = x;
  Matrix v = Matrix::Identity(n);

  double base = 0.0;  // Frobenius scale used for the convergence threshold.
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < n; ++j) base += a(i, j) * a(i, j);
  base = std::sqrt(base);
  if (base == 0.0) base = 1.0;

  for (int sweep = 0; sweep < kJacobiMaxSweeps; ++sweep) {
    double off2 = 0.0;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        double apq = a(p, q);
        off2 += apq * apq;
        if (std::fabs(apq) <= 1e-300) continue;
        double app = a(p, p), aqq = a(q, q);
        double tau = (aqq - app) / (2.0 * apq);
        double t = (tau >= 0.0)
                       ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                       : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        double c = 1.0 / std::sqrt(1.0 + t * t);
        double s = t * c;
        // Apply rotation J(p,q,theta) on both sides: A <- J^T A J.
        for (int64_t k = 0; k < n; ++k) {
          double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (int64_t k = 0; k < n; ++k) {
          double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (int64_t k = 0; k < n; ++k) {
          double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    if (std::sqrt(off2) <= kJacobiTol * base) break;
  }

  Vector evals(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) evals[static_cast<size_t>(i)] = a(i, i);
  return SortedResult(std::move(evals), v);
}

// Householder reduction to tridiagonal form, in place on `a` (symmetric;
// only the lower triangle is referenced and updated). On exit d[i] = T(i,i),
// e[i] = T(i+1,i) for i < n-1 (e has length n, the last slot is a sentinel
// for the QL iteration), and for j <= n-3 the strictly-lower part of column j
// below the first subdiagonal together with tau[j] encodes the reflector
// H_j = I - tau_j v_j v_j^T acting on rows j+1..n-1 (v_j's leading 1 is
// implicit; its tail lives at a(j+2.., j)). Q = H_0 H_1 ... H_{n-3} then
// satisfies Q^T A Q = T.
void Tridiagonalize(Matrix* a_io, Vector* d, Vector* e, Vector* tau) {
  Matrix& a = *a_io;
  const int64_t n = a.rows();
  d->assign(static_cast<size_t>(n), 0.0);
  e->assign(static_cast<size_t>(n), 0.0);
  tau->assign(n > 2 ? static_cast<size_t>(n - 2) : 0, 0.0);
  Vector v(static_cast<size_t>(n)), p(static_cast<size_t>(n)),
      w(static_cast<size_t>(n));
  for (int64_t j = 0; j + 2 < n; ++j) {
    const int64_t m = n - j - 1;  // length of the column below the diagonal
    const int64_t off = j + 1;
    for (int64_t t = 0; t < m; ++t)
      v[static_cast<size_t>(t)] = a(off + t, j);
    const double alpha = v[0];
    double xnorm2 = 0.0;
    for (int64_t t = 1; t < m; ++t)
      xnorm2 += v[static_cast<size_t>(t)] * v[static_cast<size_t>(t)];
    if (xnorm2 == 0.0) {
      // Column already in tridiagonal form: H_j = I.
      (*e)[static_cast<size_t>(j)] = alpha;
      continue;
    }
    // Elementary reflector sending the column to (beta, 0, ..., 0)^T.
    const double norm = std::sqrt(alpha * alpha + xnorm2);
    const double beta = (alpha >= 0.0) ? -norm : norm;
    const double tj = (beta - alpha) / beta;
    const double scale = 1.0 / (alpha - beta);
    v[0] = 1.0;
    for (int64_t t = 1; t < m; ++t) v[static_cast<size_t>(t)] *= scale;
    (*e)[static_cast<size_t>(j)] = beta;
    (*tau)[static_cast<size_t>(j)] = tj;
    for (int64_t t = 1; t < m; ++t) a(off + t, j) = v[static_cast<size_t>(t)];
    // p = tau * A22 v using only the lower triangle of A22 = A(j+1.., j+1..):
    // each row contributes a dot (row part) and an axpy (mirrored part), both
    // contiguous.
    for (int64_t i = 0; i < m; ++i) p[static_cast<size_t>(i)] = 0.0;
    for (int64_t i = 0; i < m; ++i) {
      const double* row = a.Row(off + i) + off;
      const double vi = v[static_cast<size_t>(i)];
      double s = row[i] * vi;
      for (int64_t t = 0; t < i; ++t) {
        s += row[t] * v[static_cast<size_t>(t)];
        p[static_cast<size_t>(t)] += row[t] * vi;
      }
      p[static_cast<size_t>(i)] += s;
    }
    for (int64_t i = 0; i < m; ++i) p[static_cast<size_t>(i)] *= tj;
    // w = p - (tau/2)(p^T v) v, then the symmetric rank-2 update
    // A22 -= v w^T + w v^T (lower triangle only).
    double pv = 0.0;
    for (int64_t i = 0; i < m; ++i)
      pv += p[static_cast<size_t>(i)] * v[static_cast<size_t>(i)];
    const double half = 0.5 * tj * pv;
    for (int64_t i = 0; i < m; ++i)
      w[static_cast<size_t>(i)] =
          p[static_cast<size_t>(i)] - half * v[static_cast<size_t>(i)];
    for (int64_t i = 0; i < m; ++i) {
      double* row = a.Row(off + i) + off;
      const double vi = v[static_cast<size_t>(i)];
      const double wi = w[static_cast<size_t>(i)];
      for (int64_t t = 0; t <= i; ++t)
        row[t] -= vi * w[static_cast<size_t>(t)] + wi * v[static_cast<size_t>(t)];
    }
  }
  if (n >= 2) (*e)[static_cast<size_t>(n - 2)] = a(n - 1, n - 2);
  for (int64_t i = 0; i < n; ++i) (*d)[static_cast<size_t>(i)] = a(i, i);
}

// Implicit-shift QL on the tridiagonal (d, e); e[i] couples d[i] and d[i+1]
// and e[n-1] is a zero sentinel. If z is non-null the plane rotations are
// accumulated into its columns. Rotations are buffered per QL step and
// applied row-major in one pass over z: each row transforms independently,
// and within a row the buffered rotations MUST be applied in recorded order
// (consecutive pairs (i, i+1), (i-1, i) overlap, so the sequence does not
// commute). This turns the classic column-strided update into a streaming
// one without changing a single arithmetic op. Returns false if an eigenvalue
// fails to converge (practically unreachable; callers fall back to Jacobi).
//
// e[m] deflates when it is negligible next to its two diagonal neighbours or
// next to the whole tridiagonal (max_k |d[k]| + |e[k]|, taken once up front).
// The second test is what lets a rank-deficient matrix converge: its
// null-space diagonal shrinks toward underflow (|d| ~ 1e-320), where the
// neighbour test can never pass.
bool TqlImplicit(Vector* d_io, Vector* e_io, Matrix* z) {
  Vector& d = *d_io;
  Vector& e = *e_io;
  const int64_t n = static_cast<int64_t>(d.size());
  if (n <= 1) return true;
  const double eps = std::numeric_limits<double>::epsilon();
  double norm = 0.0;
  for (int64_t k = 0; k < n; ++k) {
    norm = std::max(norm, std::fabs(d[static_cast<size_t>(k)]) +
                              std::fabs(e[static_cast<size_t>(k)]));
  }
  const double negligible = eps * norm;
  std::vector<double> cs(static_cast<size_t>(n)), sn(static_cast<size_t>(n));
  for (int64_t l = 0; l < n; ++l) {
    int iter = 0;
    int64_t m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[static_cast<size_t>(m)]) +
                          std::fabs(d[static_cast<size_t>(m + 1)]);
        const double em = std::fabs(e[static_cast<size_t>(m)]);
        if (em <= eps * dd || em <= negligible) break;
      }
      if (m != l) {
        if (iter++ == 50) return false;
        double g = (d[static_cast<size_t>(l + 1)] - d[static_cast<size_t>(l)]) /
                   (2.0 * e[static_cast<size_t>(l)]);
        double r = std::hypot(g, 1.0);
        g = d[static_cast<size_t>(m)] - d[static_cast<size_t>(l)] +
            e[static_cast<size_t>(l)] / (g + std::copysign(r, g));
        double s = 1.0, c = 1.0, p = 0.0;
        int64_t nrot = 0;
        int64_t i;
        for (i = m - 1; i >= l; --i) {
          double f = s * e[static_cast<size_t>(i)];
          const double b = c * e[static_cast<size_t>(i)];
          r = std::hypot(f, g);
          e[static_cast<size_t>(i + 1)] = r;
          if (r == 0.0) {
            d[static_cast<size_t>(i + 1)] -= p;
            e[static_cast<size_t>(m)] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[static_cast<size_t>(i + 1)] - p;
          r = (d[static_cast<size_t>(i)] - g) * s + 2.0 * c * b;
          p = s * r;
          d[static_cast<size_t>(i + 1)] = g + p;
          g = c * r - b;
          // Rotation on column pair (i, i+1); deferred for streaming apply.
          cs[static_cast<size_t>(nrot)] = c;
          sn[static_cast<size_t>(nrot)] = s;
          ++nrot;
        }
        if (z != nullptr && nrot > 0) {
          ComputePool().ParallelFor(
              0, z->rows(), /*grain=*/64, [&](int64_t r0, int64_t r1) {
                for (int64_t k = r0; k < r1; ++k) {
                  double* zr = z->Row(k);
                  for (int64_t idx = 0; idx < nrot; ++idx) {
                    const int64_t col = m - 1 - idx;
                    const double ci = cs[static_cast<size_t>(idx)];
                    const double si = sn[static_cast<size_t>(idx)];
                    const double f = zr[col + 1];
                    zr[col + 1] = si * zr[col] + ci * f;
                    zr[col] = ci * zr[col] - si * f;
                  }
                }
              });
        }
        if (r == 0.0 && i >= l) continue;
        d[static_cast<size_t>(l)] -= p;
        e[static_cast<size_t>(l)] = g;
        e[static_cast<size_t>(m)] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

// Back-transformation z := Q z with Q = H_0 H_1 ... H_{n-3} from
// Tridiagonalize. Reflectors are aggregated kReflectorBlock at a time into
// compact-WY form (Q_blk = I - V T V^T) so each block applies through two
// GEMM calls instead of one rank-1 update per reflector — one pass over z
// per block instead of per reflector.
void ApplyQ(const Matrix& a, const Vector& tau, Matrix* z) {
  const int64_t n = a.rows();
  const int64_t nref = static_cast<int64_t>(tau.size());
  if (nref <= 0) return;
  const int64_t ncols = z->cols();
  const int64_t nbmax = kReflectorBlock;
  std::vector<double> tmat(static_cast<size_t>(nbmax * nbmax));
  std::vector<double> vv(static_cast<size_t>(nbmax));
  // Blocks applied last-to-first so the total product is H_0 ... H_{nref-1}.
  for (int64_t kb = ((nref - 1) / nbmax) * nbmax; kb >= 0; kb -= nbmax) {
    const int64_t nb = std::min<int64_t>(nbmax, nref - kb);
    const int64_t h = n - kb - 1;  // rows kb+1 .. n-1
    // Materialize V (h x nb): column jl holds v_{kb+jl}, which starts (with
    // its implicit unit) at global row kb+1+jl.
    Matrix vpanel(h, nb);
    for (int64_t jl = 0; jl < nb; ++jl) {
      const int64_t j = kb + jl;
      vpanel(jl, jl) = 1.0;
      for (int64_t r = jl + 1; r < h; ++r) vpanel(r, jl) = a(kb + 1 + r, j);
    }
    // T (nb x nb upper triangular), dlarft-style forward columnwise build:
    // T(jl,jl) = tau_jl, T(0:jl, jl) = -tau_jl T(0:jl,0:jl) (V^T v_jl).
    std::fill(tmat.begin(), tmat.end(), 0.0);
    for (int64_t jl = 0; jl < nb; ++jl) {
      const double tj = tau[static_cast<size_t>(kb + jl)];
      if (tj == 0.0) continue;  // H = I: zero column keeps the product exact.
      for (int64_t c = 0; c < jl; ++c) vv[static_cast<size_t>(c)] = 0.0;
      for (int64_t r = jl; r < h; ++r) {
        const double* vrow = vpanel.Row(r);
        const double vr = vrow[jl];
        for (int64_t c = 0; c < jl; ++c)
          vv[static_cast<size_t>(c)] += vrow[c] * vr;
      }
      for (int64_t rr = 0; rr < jl; ++rr) {
        double s = 0.0;
        for (int64_t cc = rr; cc < jl; ++cc)
          s += tmat[static_cast<size_t>(rr * nbmax + cc)] *
               vv[static_cast<size_t>(cc)];
        tmat[static_cast<size_t>(rr * nbmax + jl)] = -tj * s;
      }
      tmat[static_cast<size_t>(jl * nbmax + jl)] = tj;
    }
    // z[kb+1.., :] -= V (T (V^T z[kb+1.., :])).
    Matrix work(nb, ncols);
    GemmViewUpdate(nb, ncols, h, 1.0, vpanel.data(), nb, true, z->Row(kb + 1),
                   ncols, false, work.data(), ncols, /*lower_only=*/false);
    // work := T work, exploiting T upper triangular; ascending rows only read
    // not-yet-overwritten rows, so the product is computed in place.
    for (int64_t i = 0; i < nb; ++i) {
      double* wrow = work.Row(i);
      const double tii = tmat[static_cast<size_t>(i * nbmax + i)];
      for (int64_t j = 0; j < ncols; ++j) wrow[j] *= tii;
      for (int64_t t = i + 1; t < nb; ++t) {
        const double coef = tmat[static_cast<size_t>(i * nbmax + t)];
        if (coef == 0.0) continue;
        const double* xrow = work.Row(t);
        for (int64_t j = 0; j < ncols; ++j) wrow[j] += coef * xrow[j];
      }
    }
    GemmViewUpdate(h, ncols, nb, -1.0, vpanel.data(), nb, false, work.data(),
                   ncols, false, z->Row(kb + 1), ncols, /*lower_only=*/false);
  }
}

}  // namespace

SymmetricEigen EigenSym(const Matrix& x) {
  HDMM_CHECK(x.rows() == x.cols());
  const int64_t n = x.rows();
  if (n < kJacobiCutoff) return JacobiEigenSym(x);

  Matrix a = x;
  Vector d, e, tau;
  Tridiagonalize(&a, &d, &e, &tau);
  Matrix z = Matrix::Identity(n);
  if (!TqlImplicit(&d, &e, &z)) {
    // Practically unreachable non-convergence: Jacobi always converges.
    return JacobiEigenSym(x);
  }
  ApplyQ(a, tau, &z);
  return SortedResult(std::move(d), z);
}

Vector EigenvaluesSym(const Matrix& x) {
  HDMM_CHECK(x.rows() == x.cols());
  const int64_t n = x.rows();
  if (n < kJacobiCutoff) return EigenSym(x).eigenvalues;
  Matrix a = x;
  Vector d, e, tau;
  Tridiagonalize(&a, &d, &e, &tau);
  if (!TqlImplicit(&d, &e, nullptr)) return JacobiEigenSym(x).eigenvalues;
  std::sort(d.begin(), d.end());
  return d;
}

}  // namespace hdmm
