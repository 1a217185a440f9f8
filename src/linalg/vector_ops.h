// Free functions over the library's vector type. Vectors are plain
// std::vector<double>; all arithmetic lives here rather than on a wrapper
// class so that interop with callers stays frictionless.
#ifndef HDMM_LINALG_VECTOR_OPS_H_
#define HDMM_LINALG_VECTOR_OPS_H_

#include <vector>

namespace hdmm {

/// The library-wide dense vector type.
using Vector = std::vector<double>;

/// Dot product; requires equal sizes.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm2(const Vector& a);

/// Squared Euclidean norm.
double Norm2Squared(const Vector& a);

/// Sum of entries.
double Sum(const Vector& a);

/// y += alpha * x.
void Axpy(double alpha, const Vector& x, Vector* y);

/// x *= alpha.
void Scale(double alpha, Vector* x);

/// Element-wise a + b.
Vector Add(const Vector& a, const Vector& b);

/// Element-wise a - b.
Vector Sub(const Vector& a, const Vector& b);

}  // namespace hdmm

#endif  // HDMM_LINALG_VECTOR_OPS_H_
