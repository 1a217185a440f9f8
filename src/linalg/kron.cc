#include "linalg/kron.h"

namespace hdmm {

Matrix KronExplicit(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      const double aij = a(i, j);
      if (aij == 0.0) continue;
      for (int64_t k = 0; k < b.rows(); ++k) {
        for (int64_t l = 0; l < b.cols(); ++l) {
          out(i * b.rows() + k, j * b.cols() + l) = aij * b(k, l);
        }
      }
    }
  }
  return out;
}

Matrix KronExplicit(const std::vector<Matrix>& factors) {
  HDMM_CHECK(!factors.empty());
  Matrix acc = factors[0];
  for (size_t i = 1; i < factors.size(); ++i)
    acc = KronExplicit(acc, factors[i]);
  return acc;
}

Vector KronVector(const std::vector<Vector>& factors) {
  HDMM_CHECK(!factors.empty());
  Vector acc = factors[0];
  for (size_t f = 1; f < factors.size(); ++f) {
    const Vector& b = factors[f];
    Vector next(acc.size() * b.size());
    size_t idx = 0;
    for (double av : acc)
      for (double bv : b) next[idx++] = av * bv;
    acc = std::move(next);
  }
  return acc;
}

Vector KronMatVec(const std::vector<const Matrix*>& factors, const Vector& x) {
  HDMM_CHECK(!factors.empty());
  int64_t n_total = 1;
  for (const Matrix* f : factors) n_total *= f->cols();
  HDMM_CHECK(static_cast<int64_t>(x.size()) == n_total);

  // Appendix A.5: repeatedly peel off the last factor.
  Vector y = x;
  int64_t cur = n_total;  // current length of y
  for (int64_t i = static_cast<int64_t>(factors.size()) - 1; i >= 0; --i) {
    const Matrix& a = *factors[static_cast<size_t>(i)];
    const int64_t ni = a.cols();
    const int64_t mi = a.rows();
    const int64_t rest = cur / ni;  // = N_i / n_i
    // Z = transpose(reshape(y, rest, ni)) is ni x rest; Y' = A * Z is
    // mi x rest, flattened row-major into the new y.
    Vector next(static_cast<size_t>(mi * rest), 0.0);
    for (int64_t r = 0; r < mi; ++r) {
      const double* arow = a.Row(r);
      double* out = next.data() + r * rest;
      for (int64_t k = 0; k < ni; ++k) {
        const double ark = arow[k];
        if (ark == 0.0) continue;
        // Column k of reshape(y, rest, ni) laid out with stride ni.
        const double* in = y.data() + k;
        for (int64_t c = 0; c < rest; ++c) out[c] += ark * in[c * ni];
      }
    }
    y = std::move(next);
    cur = mi * rest;
  }
  return y;
}

Vector KronMatVec(const std::vector<Matrix>& factors, const Vector& x) {
  std::vector<const Matrix*> ptrs;
  ptrs.reserve(factors.size());
  for (const Matrix& f : factors) ptrs.push_back(&f);
  return KronMatVec(ptrs, x);
}

Vector KronMatTVec(const std::vector<Matrix>& factors, const Vector& x) {
  std::vector<Matrix> transposed;
  transposed.reserve(factors.size());
  for (const Matrix& f : factors) transposed.push_back(f.Transposed());
  return KronMatVec(transposed, x);
}

KronOperator::KronOperator(std::vector<Matrix> factors)
    : factors_(std::move(factors)), rows_(1), cols_(1) {
  HDMM_CHECK(!factors_.empty());
  for (const Matrix& f : factors_) {
    rows_ *= f.rows();
    cols_ *= f.cols();
  }
}

void KronOperator::Apply(const Vector& x, Vector* y) const {
  *y = KronMatVec(factors_, x);
}

void KronOperator::ApplyTranspose(const Vector& x, Vector* y) const {
  *y = KronMatTVec(factors_, x);
}

double KronSensitivity(const std::vector<Matrix>& factors) {
  double s = 1.0;
  for (const Matrix& f : factors) s *= f.MaxAbsColSum();
  return s;
}

}  // namespace hdmm
