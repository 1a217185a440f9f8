#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace hdmm {

namespace {

// Pivots with |r_jj| <= kRcond * |r_00| lie beyond the numerical rank.
constexpr double kRcond = 1e-12;

// Generates the Householder reflector for column j over rows [j, m) and
// applies it to columns (j, col_end). Storage convention (read back by
// ApplyQTranspose): R's entry on the diagonal, the essential vector scaled
// to a unit leading entry below it, and tau_j = 2 v0^2 / ||v||^2 in betas so
// H_j = I - tau_j v v^T with v = (1, a_{j+1,j}, ...). Standard Golub & Van
// Loan algorithm 5.2.1.
void ReflectColumn(Matrix* a, Vector* betas, int64_t j, int64_t col_end) {
  const int64_t m = a->rows();
  double sigma = 0.0;
  for (int64_t i = j; i < m; ++i) sigma += (*a)(i, j) * (*a)(i, j);
  const double norm = std::sqrt(sigma);
  if (norm == 0.0) return;  // Zero column: nothing to reflect.

  const double ajj = (*a)(j, j);
  // Choose the sign that avoids cancellation.
  const double alpha = ajj >= 0.0 ? -norm : norm;
  const double v0 = ajj - alpha;
  // beta = 2 / ||v||^2 with v = (v0, a_{j+1,j}, ..., a_{m-1,j}).
  const double vnorm2 = sigma - ajj * ajj + v0 * v0;
  if (vnorm2 == 0.0) return;  // Column already in triangular form.
  const double tau = 2.0 * v0 * v0 / vnorm2;
  (*betas)[static_cast<size_t>(j)] = tau;

  // Store the essential vector scaled so its leading entry is 1.
  (*a)(j, j) = alpha;
  for (int64_t i = j + 1; i < m; ++i) (*a)(i, j) /= v0;

  // Apply the reflector to columns (j, col_end).
  for (int64_t k = j + 1; k < col_end; ++k) {
    double dot = (*a)(j, k);
    for (int64_t i = j + 1; i < m; ++i) dot += (*a)(i, j) * (*a)(i, k);
    const double scale = tau * dot;
    (*a)(j, k) -= scale;
    for (int64_t i = j + 1; i < m; ++i) (*a)(i, k) -= scale * (*a)(i, j);
  }
}

// Applies Q^T (the accumulated reflectors) to a vector in place.
void ApplyQTranspose(const Matrix& factored, const Vector& betas, Vector* b) {
  const int64_t m = factored.rows();
  const int64_t n = factored.cols();
  for (int64_t j = 0; j < n; ++j) {
    const double beta = betas[static_cast<size_t>(j)];
    if (beta == 0.0) continue;
    double dot = (*b)[static_cast<size_t>(j)];
    for (int64_t i = j + 1; i < m; ++i) {
      dot += factored(i, j) * (*b)[static_cast<size_t>(i)];
    }
    const double scale = beta * dot;
    (*b)[static_cast<size_t>(j)] -= scale;
    for (int64_t i = j + 1; i < m; ++i) {
      (*b)[static_cast<size_t>(i)] -= scale * factored(i, j);
    }
  }
}

// Businger-Golub pivoted factorization in compact form: R in the upper
// trapezoid of `a`, essential reflector vectors below the diagonal of the
// first min(m, n) columns, taus in `betas`, column permutation in `perm`.
// Pivot selection maximizes the remaining column norm; norms are downdated
// per step (O(n) instead of O(mn)) and recomputed from scratch when
// cancellation has eaten the downdated value (the dgeqp3 guard — without it
// a near-rank boundary can pivot on pure roundoff).
void PivotedFactor(Matrix* a, Vector* betas, std::vector<int64_t>* perm,
                   int64_t* rank) {
  const int64_t m = a->rows();
  const int64_t n = a->cols();
  const int64_t kmax = std::min(m, n);
  betas->assign(static_cast<size_t>(n), 0.0);
  perm->resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) (*perm)[static_cast<size_t>(j)] = j;

  Vector norms(static_cast<size_t>(n), 0.0);
  for (int64_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (int64_t i = 0; i < m; ++i) s += (*a)(i, j) * (*a)(i, j);
    norms[static_cast<size_t>(j)] = std::sqrt(s);
  }
  Vector norms_ref = norms;
  // Downdate accuracy floor (sqrt of double machine epsilon).
  constexpr double kRecomputeTol = 1.49e-8;

  *rank = 0;
  double r00 = 0.0;
  for (int64_t j = 0; j < kmax; ++j) {
    int64_t pivot = j;
    for (int64_t k = j + 1; k < n; ++k) {
      if (norms[static_cast<size_t>(k)] > norms[static_cast<size_t>(pivot)]) {
        pivot = k;
      }
    }
    if (pivot != j) {
      for (int64_t i = 0; i < m; ++i) std::swap((*a)(i, j), (*a)(i, pivot));
      std::swap((*perm)[static_cast<size_t>(j)],
                (*perm)[static_cast<size_t>(pivot)]);
      std::swap(norms[static_cast<size_t>(j)],
                norms[static_cast<size_t>(pivot)]);
      std::swap(norms_ref[static_cast<size_t>(j)],
                norms_ref[static_cast<size_t>(pivot)]);
    }

    ReflectColumn(a, betas, j, n);

    const double diag = std::abs((*a)(j, j));
    if (j == 0) r00 = diag;
    if (diag > kRcond * r00) *rank = j + 1;

    for (int64_t k = j + 1; k < n; ++k) {
      double& nk = norms[static_cast<size_t>(k)];
      if (nk == 0.0) continue;
      const double ratio = std::abs((*a)(j, k)) / nk;
      const double temp = std::max(0.0, 1.0 - ratio * ratio);
      const double rel = nk / norms_ref[static_cast<size_t>(k)];
      if (temp * rel * rel <= kRecomputeTol) {
        double s = 0.0;
        for (int64_t i = j + 1; i < m; ++i) s += (*a)(i, k) * (*a)(i, k);
        nk = std::sqrt(s);
        norms_ref[static_cast<size_t>(k)] = nk;
      } else {
        nk *= std::sqrt(temp);
      }
    }
  }
}

}  // namespace

Matrix PivotedQrLeastSquares(const Matrix& a, const Matrix& b) {
  HDMM_CHECK_MSG(a.rows() >= a.cols(),
                 "PivotedQrLeastSquares requires rows >= cols");
  HDMM_CHECK(b.rows() == a.rows());
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t nrhs = b.cols();

  Matrix factored = a;
  Vector betas;
  std::vector<int64_t> perm;
  int64_t rank = 0;
  PivotedFactor(&factored, &betas, &perm, &rank);

  Matrix x(n, nrhs);
  Vector c(static_cast<size_t>(m), 0.0);
  Vector z(static_cast<size_t>(n), 0.0);
  for (int64_t col = 0; col < nrhs; ++col) {
    for (int64_t i = 0; i < m; ++i) c[static_cast<size_t>(i)] = b(i, col);
    ApplyQTranspose(factored, betas, &c);
    // Back substitution on the leading rank x rank block; directions beyond
    // the numerical rank carry no signal, only noise divided by a tiny
    // pivot — truncate them to zero instead.
    std::fill(z.begin(), z.end(), 0.0);
    for (int64_t i = rank - 1; i >= 0; --i) {
      double acc = c[static_cast<size_t>(i)];
      for (int64_t j = i + 1; j < rank; ++j) {
        acc -= factored(i, j) * z[static_cast<size_t>(j)];
      }
      z[static_cast<size_t>(i)] = acc / factored(i, i);
    }
    for (int64_t j = 0; j < n; ++j) {
      x(perm[static_cast<size_t>(j)], col) = z[static_cast<size_t>(j)];
    }
  }
  return x;
}

}  // namespace hdmm
