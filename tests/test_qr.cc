#include "linalg/qr.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "linalg/pinv.h"

namespace hdmm {
namespace {

class QrShapeTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(QrShapeTest, FactorizationReconstructs) {
  auto [m, n] = GetParam();
  Rng rng(m * 53 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  QrResult qr = HouseholderQr(a);
  EXPECT_EQ(qr.q.rows(), m);
  EXPECT_EQ(qr.q.cols(), n);
  EXPECT_EQ(qr.r.rows(), n);
  EXPECT_EQ(qr.r.cols(), n);
  EXPECT_LT(qr.Reconstruct().MaxAbsDiff(a), 1e-10);
}

TEST_P(QrShapeTest, QHasOrthonormalColumns) {
  auto [m, n] = GetParam();
  Rng rng(m * 59 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  QrResult qr = HouseholderQr(a);
  EXPECT_LT(Gram(qr.q).MaxAbsDiff(Matrix::Identity(n)), 1e-10);
}

TEST_P(QrShapeTest, RUpperTriangularNonNegativeDiagonal) {
  auto [m, n] = GetParam();
  Rng rng(m * 61 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  QrResult qr = HouseholderQr(a);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_GE(qr.r(i, i), 0.0);
    for (int64_t j = 0; j < i; ++j) EXPECT_EQ(qr.r(i, j), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapeTest,
    ::testing::Values(std::pair<int64_t, int64_t>{5, 5},
                      std::pair<int64_t, int64_t>{12, 4},
                      std::pair<int64_t, int64_t>{30, 30},
                      std::pair<int64_t, int64_t>{8, 1},
                      std::pair<int64_t, int64_t>{25, 13},
                      // Blocked panel + compact-WY path (cols >= 64),
                      // including ragged final panels.
                      std::pair<int64_t, int64_t>{96, 64},
                      std::pair<int64_t, int64_t>{150, 97},
                      std::pair<int64_t, int64_t>{130, 130}));

TEST(Qr, BlockedLeastSquaresMatchesNormalEquations) {
  // Exercises the blocked factorization inside QrLeastSquares: 80 columns
  // crosses the scalar/blocked cutoff.
  Rng rng(11);
  Matrix a = Matrix::RandomUniform(120, 80, &rng, -1.0, 1.0);
  for (int64_t i = 0; i < 80; ++i) a(i, i) += 4.0;
  Vector b(120);
  for (auto& v : b) v = rng.Uniform(-2.0, 2.0);

  Vector x_qr = QrLeastSquares(a, b);
  Matrix g = Gram(a);
  Matrix l;
  ASSERT_TRUE(CholeskyFactor(g, &l));
  Vector x_ne = CholeskySolve(l, MatTVec(a, b));
  for (size_t i = 0; i < x_qr.size(); ++i) {
    EXPECT_NEAR(x_qr[i], x_ne[i], 1e-8);
  }
}

TEST(Qr, BlockedHandlesZeroColumns) {
  // Zero columns produce identity reflectors (tau = 0); the compact-WY
  // aggregation must keep the block product exact through them. The matrix
  // is rank-deficient, so only the factorization identities are checked.
  Rng rng(12);
  Matrix a = Matrix::RandomUniform(100, 70, &rng, -1.0, 1.0);
  for (int64_t i = 0; i < 100; ++i) a(i, 40) = 0.0;
  QrResult qr = HouseholderQr(a);
  EXPECT_LT(qr.Reconstruct().MaxAbsDiff(a), 1e-10);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  Rng rng(7);
  Matrix a = Matrix::RandomUniform(15, 6, &rng, -1.0, 1.0);
  Vector b(15);
  for (auto& v : b) v = rng.Uniform(-2.0, 2.0);

  Vector x_qr = QrLeastSquares(a, b);
  // Normal equations solution (A^T A) x = A^T b via Cholesky.
  Matrix g = Gram(a);
  Matrix l;
  ASSERT_TRUE(CholeskyFactor(g, &l));
  Vector x_ne = CholeskySolve(l, MatTVec(a, b));
  for (size_t i = 0; i < x_qr.size(); ++i) {
    EXPECT_NEAR(x_qr[i], x_ne[i], 1e-9);
  }
}

TEST(Qr, LeastSquaresResidualOrthogonalToRange) {
  Rng rng(8);
  Matrix a = Matrix::RandomUniform(12, 5, &rng, -1.0, 1.0);
  Vector b(12);
  for (auto& v : b) v = rng.Uniform(-1.0, 1.0);
  Vector x = QrLeastSquares(a, b);
  Vector residual = Sub(b, MatVec(a, x));
  // A^T r = 0 characterizes the least-squares minimizer.
  Vector atr = MatTVec(a, residual);
  EXPECT_LT(NormInf(atr), 1e-9);
}

TEST(Qr, ExactSolveSquareSystem) {
  Rng rng(9);
  Matrix a = Matrix::RandomUniform(9, 9, &rng, -1.0, 1.0);
  for (int64_t i = 0; i < 9; ++i) a(i, i) += 3.0;
  Vector x_true(9);
  for (auto& v : x_true) v = rng.Uniform(-1.0, 1.0);
  Vector b = MatVec(a, x_true);
  Vector x = QrLeastSquares(a, b);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Qr, IdentityFactorsTrivially) {
  Matrix i4 = Matrix::Identity(4);
  QrResult qr = HouseholderQr(i4);
  EXPECT_LT(qr.q.MaxAbsDiff(i4), 1e-12);
  EXPECT_LT(qr.r.MaxAbsDiff(i4), 1e-12);
}

TEST(Qr, AbsDeterminantMatchesLu) {
  Rng rng(10);
  Matrix a = Matrix::RandomUniform(8, 8, &rng, -1.0, 1.0);
  for (int64_t i = 0; i < 8; ++i) a(i, i) += 2.0;
  const double qr_det = AbsDeterminant(a);
  LuFactorization lu(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(qr_det, std::abs(lu.Determinant()), 1e-8 * qr_det);
}

TEST(Qr, AbsDeterminantOfSingularIsZero) {
  Matrix a = Matrix::FromRows({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_NEAR(AbsDeterminant(a), 0.0, 1e-12);
}

TEST(QrDeath, RejectsWideInput) {
  Matrix a = Matrix::Zeros(2, 5);
  EXPECT_DEATH(HouseholderQr(a), "rows >= cols");
}

TEST(QrDeath, LeastSquaresRejectsRankDeficient) {
  // Two identical columns: rank 1 out of 2.
  Matrix a = Matrix::FromRows({{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}});
  Vector b = {1.0, 1.0, 1.0};
  EXPECT_DEATH(QrLeastSquares(a, b), "rank-deficient");
}

// ------------------------------------------------------- column-pivoted --

class PivotedQrShapeTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(PivotedQrShapeTest, FactorizationReconstructs) {
  auto [m, n] = GetParam();
  Rng rng(m * 67 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  PivotedQrResult qr = ColumnPivotedQr(a);
  const int64_t k = std::min(m, n);
  EXPECT_EQ(qr.q.rows(), m);
  EXPECT_EQ(qr.q.cols(), k);
  EXPECT_EQ(qr.r.rows(), k);
  EXPECT_EQ(qr.r.cols(), n);
  EXPECT_LT(qr.Reconstruct().MaxAbsDiff(a), 1e-10);
}

TEST_P(PivotedQrShapeTest, QOrthonormalAndDiagonalDescending) {
  auto [m, n] = GetParam();
  Rng rng(m * 71 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  PivotedQrResult qr = ColumnPivotedQr(a);
  const int64_t k = std::min(m, n);
  EXPECT_LT(Gram(qr.q).MaxAbsDiff(Matrix::Identity(k)), 1e-10);
  for (int64_t i = 0; i < k; ++i) {
    EXPECT_GE(qr.r(i, i), 0.0);
    if (i > 0) {
      EXPECT_LE(qr.r(i, i), qr.r(i - 1, i - 1) + 1e-12);
    }
    for (int64_t j = 0; j < std::min(i, n); ++j) EXPECT_EQ(qr.r(i, j), 0.0);
  }
}

TEST_P(PivotedQrShapeTest, PermIsAPermutation) {
  auto [m, n] = GetParam();
  Rng rng(m * 73 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  PivotedQrResult qr = ColumnPivotedQr(a);
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (int64_t p : qr.perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[static_cast<size_t>(p)]);
    seen[static_cast<size_t>(p)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PivotedQrShapeTest,
    ::testing::Values(std::pair<int64_t, int64_t>{5, 5},
                      std::pair<int64_t, int64_t>{12, 4},
                      std::pair<int64_t, int64_t>{4, 12},
                      std::pair<int64_t, int64_t>{25, 13},
                      std::pair<int64_t, int64_t>{40, 40}));

TEST(PivotedQr, RevealsExactRankOfConstructedMatrix) {
  // A = U V^T with U 20x3, V 11x3: rank exactly 3.
  Rng rng(77);
  Matrix u = Matrix::RandomUniform(20, 3, &rng, -1.0, 1.0);
  Matrix v = Matrix::RandomUniform(11, 3, &rng, -1.0, 1.0);
  Matrix a = MatMulNT(u, v);
  PivotedQrResult qr = ColumnPivotedQr(a, 1e-10);
  EXPECT_EQ(qr.rank, 3);
  EXPECT_LT(qr.Reconstruct().MaxAbsDiff(a), 1e-10);
}

TEST(PivotedQr, FullRankMatrixHasFullRank) {
  Rng rng(79);
  Matrix a = Matrix::RandomUniform(9, 6, &rng, -1.0, 1.0);
  EXPECT_EQ(ColumnPivotedQr(a).rank, 6);
}

TEST(PivotedQr, LeastSquaresMatchesPlainQrOnFullRank) {
  Rng rng(83);
  Matrix a = Matrix::RandomUniform(14, 6, &rng, -1.0, 1.0);
  Vector b(14);
  for (double& x : b) x = rng.Uniform(-1.0, 1.0);
  const Vector plain = QrLeastSquares(a, b);
  const Vector pivoted = PivotedQrLeastSquares(a, b);
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_NEAR(pivoted[i], plain[i], 1e-9);
  }
}

TEST(PivotedQr, RankDeficientLeastSquaresHasOptimalResidual) {
  // Column 2 duplicates column 0: rank 2 of 3. QrLeastSquares dies here;
  // the pivoted solve must return a finite x whose residual matches the
  // pseudo-inverse (minimum-norm) solution's — both are least-squares
  // optimal even though the basic solution zeroes the redundant column.
  Matrix a = Matrix::FromRows({{1.0, 2.0, 1.0},
                               {2.0, 1.0, 2.0},
                               {3.0, 1.0, 3.0},
                               {1.0, 5.0, 1.0}});
  Vector b = {1.0, -2.0, 0.5, 3.0};
  const Vector x = PivotedQrLeastSquares(a, b);
  const Vector x_pinv = MatVec(PseudoInverse(a), b);
  auto residual = [&](const Vector& sol) {
    double s = 0.0;
    for (int64_t i = 0; i < a.rows(); ++i) {
      double r = b[static_cast<size_t>(i)];
      for (int64_t j = 0; j < a.cols(); ++j) {
        r -= a(i, j) * sol[static_cast<size_t>(j)];
      }
      s += r * r;
    }
    return s;
  };
  EXPECT_NEAR(residual(x), residual(x_pinv), 1e-9);
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
    Vector rhs(10);
    for (int64_t i = 0; i < 10; ++i) rhs[static_cast<size_t>(i)] = b(i, col);
    const Vector single = QrLeastSquares(a, rhs);
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(x(j, col), single[static_cast<size_t>(j)], 1e-9);
    }
  }
}

}  // namespace
}  // namespace hdmm
