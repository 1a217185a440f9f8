// Randomized factorization suite for the blocked linalg layer: blocked
// right-looking Cholesky and the multi-RHS triangular solves against scalar
// reference kernels, eigen reconstruction/orthogonality bounds across the
// Jacobi/tridiagonal cutoff, Moore-Penrose identities, and the near-singular
// fallback paths in TracePinvGram.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/timer.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "linalg/pinv.h"
#include "workload/parser.h"

namespace hdmm {
namespace {

Matrix RandomSpdGram(int64_t n, Rng* rng, double ridge = 0.5) {
  Matrix a = Matrix::RandomUniform(n + 5, n, rng, -1.0, 1.0);
  Matrix g;
  GramInto(a, &g);
  for (int64_t i = 0; i < n; ++i) g(i, i) += ridge;
  return g;
}

// The seed repo's scalar three-loop Cholesky, kept as the reference the
// blocked factorization must reproduce.
bool ReferenceCholesky(const Matrix& x, Matrix* l) {
  const int64_t n = x.rows();
  *l = Matrix::Zeros(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      double s = x(i, j);
      const double* li = l->Row(i);
      const double* lj = l->Row(j);
      for (int64_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      if (i == j) {
        if (s <= 0.0 || !std::isfinite(s)) return false;
        (*l)(i, i) = std::sqrt(s);
      } else {
        (*l)(i, j) = s / (*l)(j, j);
      }
    }
  }
  return true;
}

double RelativeFrobDiff(const Matrix& a, const Matrix& b) {
  double num = 0.0, den = 0.0;
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      const double d = a(i, j) - b(i, j);
      num += d * d;
      den += b(i, j) * b(i, j);
    }
  }
  return std::sqrt(num) / std::sqrt(std::max(den, 1e-300));
}

// Sizes straddling the factorization panel width (64) and its multiples so
// every code path — pure diagonal block, partial panel, multi-panel with
// trailing updates — gets exercised.
const int64_t kCholeskySizes[] = {1, 2, 7, 63, 64, 65, 130, 257};

TEST(BlockedCholesky, MatchesReferenceOnRandomSpdGrams) {
  Rng rng(11);
  for (int64_t n : kCholeskySizes) {
    Matrix x = RandomSpdGram(n, &rng);
    Matrix blocked, reference;
    ASSERT_TRUE(CholeskyFactor(x, &blocked));
    ASSERT_TRUE(ReferenceCholesky(x, &reference));
    EXPECT_LT(RelativeFrobDiff(blocked, reference), 1e-8) << "n=" << n;
  }
}

TEST(BlockedCholesky, FactorIsLowerTriangularAndReconstructs) {
  Rng rng(12);
  for (int64_t n : {65, 200}) {
    Matrix x = RandomSpdGram(n, &rng);
    Matrix l;
    ASSERT_TRUE(CholeskyFactor(x, &l));
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = i + 1; j < n; ++j)
        ASSERT_EQ(l(i, j), 0.0) << i << "," << j;
    Matrix rec = MatMulNT(l, l);
    EXPECT_LT(RelativeFrobDiff(rec, x), 1e-10);
  }
}

TEST(BlockedCholesky, RejectsIndefiniteAtAnyPanel) {
  Rng rng(13);
  // Indefinite in the first panel.
  Matrix x = Matrix::FromRows({{1.0, 2.0}, {2.0, 1.0}});
  Matrix l;
  EXPECT_FALSE(CholeskyFactor(x, &l));
  // SPD except for one late direction: flip the sign of a trailing
  // eigenvalue by subtracting a large rank-1 term at the far corner.
  const int64_t n = 100;
  Matrix y = RandomSpdGram(n, &rng);
  y(n - 1, n - 1) = -1.0;
  EXPECT_FALSE(CholeskyFactor(y, &l));
}

TEST(MultiRhsSolve, MatchesPerColumnSolves) {
  Rng rng(14);
  for (int64_t n : {5, 64, 150}) {
    Matrix x = RandomSpdGram(n, &rng);
    Matrix b = Matrix::RandomUniform(n, 37, &rng, -2.0, 2.0);
    Matrix l;
    ASSERT_TRUE(CholeskyFactor(x, &l));
    Matrix multi;
    CholeskySolveMatrixInto(l, b, &multi);
    for (int64_t j = 0; j < b.cols(); ++j) {
      Vector col = b.ColVector(j);
      Vector sol = CholeskySolve(l, col);
      for (int64_t i = 0; i < n; ++i)
        ASSERT_NEAR(multi(i, j), sol[static_cast<size_t>(i)], 1e-9)
            << "n=" << n << " col=" << j;
    }
  }
}

TEST(MultiRhsSolve, TriangularPiecesInvertRoundTrip) {
  Rng rng(15);
  const int64_t n = 129;
  Matrix x = RandomSpdGram(n, &rng);
  Matrix l;
  ASSERT_TRUE(CholeskyFactor(x, &l));
  Matrix y = Matrix::RandomUniform(n, 20, &rng, -1.0, 1.0);
  // Forward then multiply back: L (L^{-1} Y) == Y.
  Matrix z = y;
  ForwardSubstituteMatrix(l, &z);
  Matrix back;
  MatMulInto(l, z, &back);
  EXPECT_LT(RelativeFrobDiff(back, y), 1e-10);
  // Backward then multiply back: L^T (L^{-T} Y) == Y.
  z = y;
  BackwardSubstituteTransposeMatrix(l, &z);
  MatMulTNInto(l, z, &back);
  EXPECT_LT(RelativeFrobDiff(back, y), 1e-10);
}

TEST(TraceSolve, BlockedTraceMatchesExplicitInverse) {
  Rng rng(16);
  const int64_t n = 96;
  Matrix x = RandomSpdGram(n, &rng);
  Matrix g = RandomSpdGram(n, &rng);
  double tr = TracePinvGram(x, g);
  Matrix explicit_prod = MatMul(PsdPseudoInverse(x), g);
  EXPECT_NEAR(tr, explicit_prod.Trace(), 1e-6 * std::fabs(tr));
}

// Eigen sizes straddling the Jacobi cutoff (32) and the WY block width (32).
const int64_t kEigenSizes[] = {3, 16, 31, 32, 33, 64, 97, 200};

TEST(EigenFactor, ReconstructionWithinFrobeniusBound) {
  Rng rng(17);
  for (int64_t n : kEigenSizes) {
    Matrix x = RandomSpdGram(n, &rng, 0.1);
    SymmetricEigen eig = EigenSym(x);
    // ||V Lambda V^T - X||_F <= tol ||X||_F.
    Matrix scaled = eig.eigenvectors;
    for (int64_t j = 0; j < n; ++j)
      for (int64_t i = 0; i < n; ++i)
        scaled(i, j) *= eig.eigenvalues[static_cast<size_t>(j)];
    Matrix rec = MatMulNT(scaled, eig.eigenvectors);
    EXPECT_LT(RelativeFrobDiff(rec, x), 1e-8) << "n=" << n;
    // Columns orthonormal.
    Matrix vtv;
    GramInto(eig.eigenvectors, &vtv);
    EXPECT_LT(vtv.MaxAbsDiff(Matrix::Identity(n)), 1e-9) << "n=" << n;
    // Ascending order.
    for (int64_t i = 1; i < n; ++i)
      ASSERT_LE(eig.eigenvalues[static_cast<size_t>(i - 1)],
                eig.eigenvalues[static_cast<size_t>(i)]);
  }
}

TEST(EigenFactor, ValuesOnlyPathMatchesFullDecomposition) {
  Rng rng(18);
  for (int64_t n : {20, 33, 128}) {
    Matrix x = RandomSpdGram(n, &rng, 0.1);
    SymmetricEigen eig = EigenSym(x);
    Vector vals = EigenvaluesSym(x);
    ASSERT_EQ(vals.size(), eig.eigenvalues.size());
    const double scale = std::fabs(eig.eigenvalues.back()) + 1e-300;
    for (size_t i = 0; i < vals.size(); ++i)
      ASSERT_NEAR(vals[i], eig.eigenvalues[i], 1e-9 * scale) << "n=" << n;
  }
}

TEST(EigenFactor, HandlesRankDeficiency) {
  Rng rng(19);
  const int64_t n = 80;
  // Rank-20 PSD matrix: 60 eigenvalues should come out (near) zero.
  Matrix a = Matrix::RandomUniform(20, n, &rng, -1.0, 1.0);
  Matrix g;
  GramInto(a, &g);
  SymmetricEigen eig = EigenSym(g);
  for (int64_t i = 0; i < n - 20; ++i)
    EXPECT_NEAR(eig.eigenvalues[static_cast<size_t>(i)], 0.0, 1e-8);
  for (int64_t i = n - 20; i < n; ++i)
    EXPECT_GT(eig.eigenvalues[static_cast<size_t>(i)], 1e-6);

  // A union Gram of rank 23 over 512 cells. Its null-space diagonal
  // underflows during QL, where a deflation test against the two diagonal
  // neighbours alone never passes; the time bounds catch a fallback to the
  // O(n^3)-per-sweep Jacobi solver.
  const UnionWorkload union_workload = ParseWorkloadOrDie(
      "domain a=8 b=16 c=4\n"
      "product a=allrange\n"
      "product weight=2 b=allrange\n");
  const Matrix union_gram = union_workload.ExplicitGram();
  ASSERT_EQ(union_gram.rows(), 512);
  const double trace = union_gram.Trace();
  const double frob_sq = union_gram.FrobeniusNormSquared();
  WallTimer values_timer;
  const Vector values = EigenvaluesSym(union_gram);
  const double values_s = values_timer.Seconds();
  WallTimer full_timer;
  const Vector full = EigenSym(union_gram).eigenvalues;
  const double full_s = full_timer.Seconds();
  EXPECT_LT(values_s, 2.0);
  EXPECT_LT(full_s, 2.0);
  for (const Vector* lambdas : {&values, &full}) {
    const double max_ev = *std::max_element(lambdas->begin(), lambdas->end());
    int rank = 0;
    double sum = 0.0, sum_sq = 0.0;
    for (double lambda : *lambdas) {
      EXPECT_GE(lambda, -1e-9 * max_ev);
      if (lambda > 1e-9 * max_ev) ++rank;
      sum += lambda;
      sum_sq += lambda * lambda;
    }
    EXPECT_EQ(rank, 23);
    EXPECT_NEAR(sum, trace, 1e-12 * trace);
    EXPECT_NEAR(sum_sq, frob_sq, 1e-12 * frob_sq);
  }
}

TEST(PseudoInverseFactor, MoorePenroseIdentities) {
  Rng rng(20);
  // Rank-deficient rectangular matrix: 50 x 40 of rank 25.
  Matrix b1 = Matrix::RandomUniform(50, 25, &rng, -1.0, 1.0);
  Matrix b2 = Matrix::RandomUniform(25, 40, &rng, -1.0, 1.0);
  Matrix a = MatMul(b1, b2);
  Matrix ap = PseudoInverse(a);
  // A A+ A = A.
  Matrix aapa = MatMul(MatMul(a, ap), a);
  EXPECT_LT(RelativeFrobDiff(aapa, a), 1e-8);
  // A+ A A+ = A+.
  Matrix apaap = MatMul(MatMul(ap, a), ap);
  EXPECT_LT(RelativeFrobDiff(apaap, ap), 1e-8);
  // A A+ and A+ A symmetric.
  Matrix aap = MatMul(a, ap);
  EXPECT_LT(aap.MaxAbsDiff(aap.Transposed()), 1e-8);
  Matrix apa = MatMul(ap, a);
  EXPECT_LT(apa.MaxAbsDiff(apa.Transposed()), 1e-8);
}

TEST(TracePinvGramFactor, SpdPathMatchesPinvPath) {
  Rng rng(21);
  const int64_t n = 70;
  Matrix ga = RandomSpdGram(n, &rng);
  Matrix gw = RandomSpdGram(n, &rng);
  double fast = TracePinvGram(ga, gw);
  Matrix pinv = PsdPseudoInverse(ga);
  double slow = MatMul(pinv, gw).Trace();
  EXPECT_NEAR(fast, slow, 1e-6 * std::fabs(fast));
}

TEST(TracePinvGramFactor, NearSingularFallsBackToPseudoInverse) {
  Rng rng(22);
  const int64_t n = 60;
  // Exactly singular strategy Gram (rank 40): the Cholesky path must refuse
  // and the eigen-based pseudo-inverse fallback take over.
  Matrix a = Matrix::RandomUniform(40, n, &rng, -1.0, 1.0);
  Matrix ga;
  GramInto(a, &ga);
  Matrix gw = RandomSpdGram(n, &rng);
  double tr = TracePinvGram(ga, gw);
  ASSERT_TRUE(std::isfinite(tr));
  Matrix pinv = PsdPseudoInverse(ga);
  double expect = MatMul(pinv, gw).Trace();
  EXPECT_NEAR(tr, expect, 1e-6 * std::fabs(expect));
}

}  // namespace
}  // namespace hdmm
