#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/pinv.h"

namespace hdmm {
namespace {

Matrix RandomSpd(int64_t n, Rng* rng) {
  Matrix a = Matrix::RandomUniform(n + 3, n, rng, -1.0, 1.0);
  Matrix g = Gram(a);
  for (int64_t i = 0; i < n; ++i) g(i, i) += 0.5;  // Well-conditioned.
  return g;
}

TEST(Cholesky, FactorReconstructs) {
  Rng rng(1);
  Matrix x = RandomSpd(12, &rng);
  Matrix l;
  ASSERT_TRUE(CholeskyFactor(x, &l));
  Matrix rec = MatMulNT(l, l);
  EXPECT_LT(rec.MaxAbsDiff(x), 1e-10);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix x = Matrix::FromRows({{1.0, 2.0}, {2.0, 1.0}});  // Eigenvalue -1.
  Matrix l;
  EXPECT_FALSE(CholeskyFactor(x, &l));
}

TEST(Cholesky, SolveMatchesDirect) {
  Rng rng(2);
  Matrix x = RandomSpd(10, &rng);
  Vector b(10);
  for (auto& v : b) v = rng.Uniform(-1.0, 1.0);
  Matrix l;
  ASSERT_TRUE(CholeskyFactor(x, &l));
  Vector sol = CholeskySolve(l, b);
  Vector back = MatVec(x, sol);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(back[i], b[i], 1e-9);
}

TEST(Lu, TriangularSolvers) {
  Matrix u = Matrix::FromRows({{2.0, 1.0, 3.0}, {0.0, 4.0, 5.0}, {0.0, 0.0, 6.0}});
  Vector b = {1.0, 2.0, 3.0};
  Vector x = UpperTriangularSolve(u, b);
  Vector back = MatVec(u, x);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], b[i], 1e-12);
  Vector xt = UpperTriangularSolveTranspose(u, b);
  Vector backt = MatVec(u.Transposed(), xt);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(backt[i], b[i], 1e-12);
}

TEST(EigenSym, Reconstructs) {
  Rng rng(7);
  Matrix x = RandomSpd(10, &rng);
  SymmetricEigen eig = EigenSym(x);
  // X = V diag(lambda) V^T.
  Matrix scaled = eig.eigenvectors;
  for (int64_t j = 0; j < 10; ++j)
    for (int64_t i = 0; i < 10; ++i)
      scaled(i, j) *= eig.eigenvalues[static_cast<size_t>(j)];
  Matrix rec = MatMulNT(scaled, eig.eigenvectors);
  EXPECT_LT(rec.MaxAbsDiff(x), 1e-9);
  // Ascending eigenvalues, all positive for SPD.
  for (size_t i = 1; i < eig.eigenvalues.size(); ++i)
    EXPECT_LE(eig.eigenvalues[i - 1], eig.eigenvalues[i]);
  EXPECT_GT(eig.eigenvalues[0], 0.0);
}

TEST(EigenSym, OrthonormalVectors) {
  Rng rng(8);
  Matrix x = RandomSpd(9, &rng);
  SymmetricEigen eig = EigenSym(x);
  Matrix vtv = Gram(eig.eigenvectors);
  EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(9)), 1e-9);
}

TEST(Pinv, PsdPseudoInverseFullRank) {
  Rng rng(9);
  Matrix x = RandomSpd(8, &rng);
  Matrix p = PsdPseudoInverse(x);
  EXPECT_LT(MatMul(x, p).MaxAbsDiff(Matrix::Identity(8)), 1e-8);
}

TEST(Pinv, PsdPseudoInverseSingular) {
  // Rank-1 PSD matrix: X = v v^T.
  Matrix v = Matrix::FromRows({{1.0}, {2.0}, {3.0}});
  Matrix x = MatMulNT(v, v);
  Matrix p = PsdPseudoInverse(x);
  // Penrose conditions: X P X = X and P X P = P.
  EXPECT_LT(MatMul(MatMul(x, p), x).MaxAbsDiff(x), 1e-9);
  EXPECT_LT(MatMul(MatMul(p, x), p).MaxAbsDiff(p), 1e-9);
}

TEST(Pinv, GeneralPinvPenroseConditions) {
  Rng rng(10);
  for (auto [m, n] : std::vector<std::pair<int, int>>{{8, 5}, {5, 8}, {6, 6}}) {
    Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
    Matrix p = PseudoInverse(a);
    EXPECT_EQ(p.rows(), n);
    EXPECT_EQ(p.cols(), m);
    EXPECT_LT(MatMul(MatMul(a, p), a).MaxAbsDiff(a), 1e-8);
    EXPECT_LT(MatMul(MatMul(p, a), p).MaxAbsDiff(p), 1e-8);
  }
}

TEST(Pinv, TracerMatchesExplicitForTallAndWideFactors) {
  // PinvGramTracer(A).Trace(W^T W) = ||W A^+||_F^2 for tall, square and wide
  // factors, including a scaled all-ones row whose Gram is singular.
  Rng rng(12);
  Matrix scaled_total = Matrix::Ones(1, 9);
  scaled_total.ScaleInPlace(0.37);
  std::vector<Matrix> factors = {Matrix::RandomUniform(12, 6, &rng, -1.0, 1.0),
                                 Matrix::RandomUniform(6, 6, &rng, -1.0, 1.0),
                                 Matrix::RandomUniform(3, 8, &rng, -1.0, 1.0),
                                 scaled_total};
  for (const Matrix& a : factors) {
    Matrix w = Matrix::RandomUniform(5, a.cols(), &rng, -1.0, 1.0);
    const double want = MatMul(w, PseudoInverse(a)).FrobeniusNormSquared();
    const double got = PinvGramTracer(a).Trace(Gram(w));
    EXPECT_NEAR(got, want, 1e-9 * want) << a.rows() << "x" << a.cols();
  }
}

TEST(Pinv, TracePinvGramMatchesExplicit) {
  Rng rng(11);
  Matrix a = Matrix::RandomUniform(12, 6, &rng, -1.0, 1.0);
  Matrix w = Matrix::RandomUniform(9, 6, &rng, -1.0, 1.0);
  double tr = TracePinvGram(Gram(a), Gram(w));
  // ||W A^+||_F^2 computed explicitly.
  Matrix wap = MatMul(w, PseudoInverse(a));
  EXPECT_NEAR(tr, wap.FrobeniusNormSquared(), 1e-8);
}

}  // namespace
}  // namespace hdmm
