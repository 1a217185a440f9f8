#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.h"

namespace hdmm {

namespace {

// Sweep cap and pairwise orthogonality tolerance of the Jacobi iteration.
constexpr int kMaxSweeps = 60;
constexpr double kTol = 1e-13;

// One-sided Jacobi kernel. Orthogonalizes the columns of `work` (m x n,
// m >= n is NOT required here) in place. Returns after kMaxSweeps or once
// every column pair satisfies |u_p . u_q| <= kTol * ||u_p|| * ||u_q||.
void JacobiOrthogonalize(Matrix* work) {
  const int64_t m = work->rows();
  const int64_t n = work->cols();
  if (n < 2) return;

  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (int64_t i = 0; i < m; ++i) {
          const double up = (*work)(i, p);
          const double uq = (*work)(i, q);
          alpha += up * up;
          beta += uq * uq;
          gamma += up * uq;
        }
        if (alpha == 0.0 || beta == 0.0) continue;
        if (std::abs(gamma) <= kTol * std::sqrt(alpha * beta)) continue;
        rotated = true;

        // Closed-form Jacobi rotation zeroing the (p, q) column inner
        // product (Golub & Van Loan sec. 8.6.3).
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (int64_t i = 0; i < m; ++i) {
          const double up = (*work)(i, p);
          const double uq = (*work)(i, q);
          (*work)(i, p) = c * up - s * uq;
          (*work)(i, q) = s * up + c * uq;
        }
      }
    }
    if (!rotated) break;
  }
}

// Column norms of an orthogonalized working matrix = singular values.
Vector ColumnNorms(const Matrix& work) {
  Vector s(static_cast<size_t>(work.cols()), 0.0);
  for (int64_t j = 0; j < work.cols(); ++j) {
    double acc = 0.0;
    for (int64_t i = 0; i < work.rows(); ++i) {
      acc += work(i, j) * work(i, j);
    }
    s[static_cast<size_t>(j)] = std::sqrt(acc);
  }
  return s;
}

}  // namespace

Vector SingularValues(const Matrix& a) {
  HDMM_CHECK(a.rows() > 0 && a.cols() > 0);
  Matrix work = a.rows() >= a.cols() ? a : a.Transposed();
  JacobiOrthogonalize(&work);
  Vector s = ColumnNorms(work);
  std::sort(s.begin(), s.end(), std::greater<double>());
  return s;
}

double NuclearNorm(const Matrix& a) {
  const Vector s = SingularValues(a);
  double total = 0.0;
  for (double sv : s) total += sv;
  return total;
}

}  // namespace hdmm
