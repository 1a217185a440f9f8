#include "linalg/svd.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/eigen_sym.h"
#include "linalg/kron.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

// Property sweep over shapes: the singular-value contract must hold for
// tall, wide, and square inputs of varying size.
class SvdShapeTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(SvdShapeTest, SingularValuesDescendingAndNonNegative) {
  auto [m, n] = GetParam();
  Rng rng(m + 7 * n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  Vector s = SingularValues(a);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i], 0.0);
    if (i > 0) {
      EXPECT_LE(s[i], s[i - 1]);
    }
  }
}

TEST_P(SvdShapeTest, MatchesGramEigenvalues) {
  auto [m, n] = GetParam();
  Rng rng(3 * m + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  Vector s = SingularValues(a);
  // Eigenvalues of A^T A are the squared singular values (ascending order
  // from EigenSym, descending from SingularValues).
  Matrix g = m >= n ? Gram(a) : Gram(a.Transposed());
  SymmetricEigen eig = EigenSym(g);
  std::vector<double> lam(eig.eigenvalues.rbegin(), eig.eigenvalues.rend());
  ASSERT_EQ(lam.size(), s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_NEAR(s[i] * s[i], std::max(lam[i], 0.0), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeTest,
    ::testing::Values(std::pair<int64_t, int64_t>{6, 6},
                      std::pair<int64_t, int64_t>{12, 5},
                      std::pair<int64_t, int64_t>{5, 12},
                      std::pair<int64_t, int64_t>{20, 20},
                      std::pair<int64_t, int64_t>{1, 8},
                      std::pair<int64_t, int64_t>{8, 1},
                      std::pair<int64_t, int64_t>{32, 17}));

TEST(Svd, DiagonalMatrixExact) {
  Matrix a = Matrix::Diagonal({3.0, 1.0, 2.0});
  Vector s = SingularValues(a);
  EXPECT_NEAR(s[0], 3.0, 1e-12);
  EXPECT_NEAR(s[1], 2.0, 1e-12);
  EXPECT_NEAR(s[2], 1.0, 1e-12);
}

TEST(Svd, ZeroMatrix) {
  Matrix a = Matrix::Zeros(4, 3);
  Vector s = SingularValues(a);
  ASSERT_EQ(s.size(), 3u);
  for (double sv : s) EXPECT_EQ(sv, 0.0);
}

TEST(Svd, PrefixSingularValuesKnownForm) {
  // Singular values of the n x n lower-triangular all-ones matrix are
  // 1 / (2 sin((2k+1) pi / (2(2n+1)))), k = 0..n-1. Check against the
  // closed form for n = 8.
  const int64_t n = 8;
  Matrix p = PrefixBlock(n);
  Vector s = SingularValues(p);
  const double pi = 3.14159265358979323846;
  for (int64_t k = 0; k < n; ++k) {
    const double expected =
        0.5 / std::sin((2.0 * static_cast<double>(k) + 1.0) * pi /
                       (2.0 * (2.0 * static_cast<double>(n) + 1.0)));
    EXPECT_NEAR(s[static_cast<size_t>(k)], expected, 1e-10);
  }
}

TEST(Svd, NuclearAndSpectralNorms) {
  Matrix a = Matrix::Diagonal({4.0, 3.0, 0.0});
  EXPECT_NEAR(NuclearNorm(a), 7.0, 1e-12);
}

TEST(Svd, KroneckerSingularValuesAreProducts) {
  // sigma(A (x) B) = { sigma_i(A) * sigma_j(B) } — the identity that lets
  // the lower-bound machinery work implicitly on product workloads.
  Rng rng(5);
  Matrix a = Matrix::RandomUniform(4, 3, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(5, 4, &rng, -1.0, 1.0);
  Vector sa = SingularValues(a);
  Vector sb = SingularValues(b);
  std::vector<double> products;
  for (double x : sa)
    for (double y : sb) products.push_back(x * y);
  std::sort(products.begin(), products.end(), std::greater<double>());

  Vector s_kron = SingularValues(KronExplicit(a, b));
  ASSERT_EQ(s_kron.size(), products.size());
  for (size_t i = 0; i < products.size(); ++i) {
    EXPECT_NEAR(s_kron[i], products[i], 1e-9);
  }
}

}  // namespace
}  // namespace hdmm
