#include "linalg/vector_ops.h"

#include <cmath>

#include "common/check.h"

namespace hdmm {

double Dot(const Vector& a, const Vector& b) {
  HDMM_CHECK(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double Norm2(const Vector& a) { return std::sqrt(Norm2Squared(a)); }

double Norm2Squared(const Vector& a) {
  double s = 0.0;
  for (double v : a) s += v * v;
  return s;
}

double Sum(const Vector& a) {
  double s = 0.0;
  for (double v : a) s += v;
  return s;
}

void Axpy(double alpha, const Vector& x, Vector* y) {
  HDMM_CHECK(x.size() == y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(double alpha, Vector* x) {
  for (double& v : *x) v *= alpha;
}

Vector Add(const Vector& a, const Vector& b) {
  HDMM_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector Sub(const Vector& a, const Vector& b) {
  HDMM_CHECK(a.size() == b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

}  // namespace hdmm
