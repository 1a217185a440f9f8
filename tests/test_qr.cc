#include "linalg/qr.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/pinv.h"

namespace hdmm {
namespace {

// b as a one-column right-hand side.
Matrix AsColumn(const Vector& b) {
  return Matrix(static_cast<int64_t>(b.size()), 1, b);
}

// The normal-equations solution (A^T A) x = A^T b via Cholesky: the
// reference for full-column-rank least squares.
Vector NormalEquationsSolve(const Matrix& a, const Vector& b) {
  Matrix l;
  EXPECT_TRUE(CholeskyFactor(Gram(a), &l));
  return CholeskySolve(l, MatTVec(a, b));
}

double SquaredResidual(const Matrix& a, const Vector& b, const Vector& x) {
  const Vector r = Sub(b, MatVec(a, x));
  return Dot(r, r);
}

int64_t CountZeros(const Vector& x) {
  int64_t zeros = 0;
  for (double v : x) zeros += v == 0.0 ? 1 : 0;
  return zeros;
}

TEST(PivotedQr, RevealsExactRankOfConstructedMatrix) {
  // A = U V^T with U 20x3, V 11x3: rank exactly 3. The basic solution keeps
  // one coefficient per pivot inside the numerical rank and zeroes the
  // other n - 3, while staying least-squares optimal.
  Rng rng(77);
  Matrix u = Matrix::RandomUniform(20, 3, &rng, -1.0, 1.0);
  Matrix v = Matrix::RandomUniform(11, 3, &rng, -1.0, 1.0);
  Matrix a = MatMulNT(u, v);
  Vector b(20);
  for (double& x : b) x = rng.Uniform(-1.0, 1.0);
  const Vector x = PivotedQrLeastSquares(a, AsColumn(b)).ColVector(0);
  EXPECT_EQ(CountZeros(x), 11 - 3);
  const Vector x_pinv = MatVec(PseudoInverse(a), b);
  EXPECT_NEAR(SquaredResidual(a, b, x), SquaredResidual(a, b, x_pinv), 1e-9);
}

TEST(PivotedQr, FullRankMatrixHasFullRank) {
  Rng rng(79);
  Matrix a = Matrix::RandomUniform(9, 6, &rng, -1.0, 1.0);
  Vector b(9);
  for (double& x : b) x = rng.Uniform(-1.0, 1.0);
  const Vector x = PivotedQrLeastSquares(a, AsColumn(b)).ColVector(0);
  EXPECT_EQ(CountZeros(x), 0);
}

TEST(PivotedQr, LeastSquaresMatchesNormalEquations) {
  Rng rng(83);
  Matrix a = Matrix::RandomUniform(14, 6, &rng, -1.0, 1.0);
  Vector b(14);
  for (double& x : b) x = rng.Uniform(-1.0, 1.0);
  const Vector normal = NormalEquationsSolve(a, b);
  const Vector pivoted = PivotedQrLeastSquares(a, AsColumn(b)).ColVector(0);
  for (size_t i = 0; i < normal.size(); ++i) {
    EXPECT_NEAR(pivoted[i], normal[i], 1e-9);
  }
}

TEST(PivotedQr, RankDeficientLeastSquaresHasOptimalResidual) {
  // Column 2 duplicates column 0: rank 2 of 3, so the normal equations are
  // singular. The pivoted solve must return a finite x whose residual
  // matches the pseudo-inverse (minimum-norm) solution's — both are
  // least-squares optimal even though the basic solution zeroes the
  // redundant column.
  Matrix a = Matrix::FromRows({{1.0, 2.0, 1.0},
                               {2.0, 1.0, 2.0},
                               {3.0, 1.0, 3.0},
                               {1.0, 5.0, 1.0}});
  Vector b = {1.0, -2.0, 0.5, 3.0};
  const Vector x = PivotedQrLeastSquares(a, AsColumn(b)).ColVector(0);
  const Vector x_pinv = MatVec(PseudoInverse(a), b);
  EXPECT_NEAR(SquaredResidual(a, b, x), SquaredResidual(a, b, x_pinv), 1e-9);
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(PivotedQr, MultiRhsSolvesEachColumn) {
  Rng rng(89);
  Matrix a = Matrix::RandomUniform(10, 4, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(10, 3, &rng, -1.0, 1.0);
  const Matrix x = PivotedQrLeastSquares(a, b);
  ASSERT_EQ(x.rows(), 4);
  ASSERT_EQ(x.cols(), 3);
  for (int64_t col = 0; col < 3; ++col) {
    const Vector single = NormalEquationsSolve(a, b.ColVector(col));
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(x(j, col), single[static_cast<size_t>(j)], 1e-9);
    }
  }
}

}  // namespace
}  // namespace hdmm
