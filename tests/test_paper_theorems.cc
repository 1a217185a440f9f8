// Direct verification of every numbered theorem and proposition of
// McKenna et al. (PVLDB 2018) on randomized instances. Each test states the
// claim, builds both sides independently (implicit machinery vs brute-force
// explicit computation), and compares. These are the load-bearing
// correctness arguments of the paper; everything else in the library leans
// on them.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/opt_marginals.h"
#include "core/pidentity.h"
#include "core/strategy.h"
#include "linalg/kron.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"
#include "workload/predicate.h"

namespace hdmm {
namespace {

Predicate RandomPredicate(int64_t n, Rng* rng) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return Predicate::True();
    case 1:
      return Predicate::Equals(rng->UniformInt(0, n - 1));
    case 2: {
      int64_t lo = rng->UniformInt(0, n - 1);
      int64_t hi = rng->UniformInt(lo, n - 1);
      return Predicate::Range(lo, hi);
    }
    default: {
      std::vector<int64_t> values;
      for (int64_t v = 0; v < n; ++v) {
        if (rng->UniformInt(0, 1) == 1) values.push_back(v);
      }
      if (values.empty()) values.push_back(rng->UniformInt(0, n - 1));
      return Predicate::InSet(std::move(values));
    }
  }
}

// vec(phi) over the FULL product domain by brute force: evaluate the
// conjunction on every tuple (the "simple algorithm" below Definition 4).
Vector BruteForceVectorize(const std::vector<Predicate>& conjuncts,
                           const Domain& domain) {
  Vector v(static_cast<size_t>(domain.TotalSize()), 0.0);
  for (int64_t cell = 0; cell < domain.TotalSize(); ++cell) {
    const std::vector<int64_t> coords = domain.Unflatten(cell);
    bool match = true;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!conjuncts[i].Matches(coords[i])) match = false;
    }
    v[static_cast<size_t>(cell)] = match ? 1.0 : 0.0;
  }
  return v;
}

// --- Theorem 1: vec(phi_1 AND phi_2) = vec(phi_1) (x) vec(phi_2). ----------

class Theorem1Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem1Test, ImplicitVectorizationOfConjunctions) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int64_t n1 = rng.UniformInt(2, 6);
  const int64_t n2 = rng.UniformInt(2, 6);
  const int64_t n3 = rng.UniformInt(2, 4);
  Domain domain({n1, n2, n3});
  std::vector<Predicate> conjuncts = {RandomPredicate(n1, &rng),
                                      RandomPredicate(n2, &rng),
                                      RandomPredicate(n3, &rng)};

  const Vector brute = BruteForceVectorize(conjuncts, domain);
  const Vector implicit = KronVector({VectorizePredicate(conjuncts[0], n1),
                                      VectorizePredicate(conjuncts[1], n2),
                                      VectorizePredicate(conjuncts[2], n3)});
  ASSERT_EQ(brute.size(), implicit.size());
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(brute[i], implicit[i]) << "cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem1Test, ::testing::Range(0, 10));

// --- Theorem 2 / Proposition 2: vec(Phi x Psi) = vec(Phi) (x) vec(Psi). ----

class Theorem2Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem2Test, ProductWorkloadVectorization) {
  Rng rng(static_cast<uint64_t>(100 + GetParam()));
  const int64_t n1 = rng.UniformInt(2, 5);
  const int64_t n2 = rng.UniformInt(2, 5);
  Domain domain({n1, n2});

  std::vector<Predicate> phi, psi;
  const int p = static_cast<int>(rng.UniformInt(1, 3));
  const int r = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < p; ++i) phi.push_back(RandomPredicate(n1, &rng));
  for (int i = 0; i < r; ++i) psi.push_back(RandomPredicate(n2, &rng));

  // Implicit: Kronecker of the per-attribute predicate-set matrices.
  Matrix implicit = KronExplicit({VectorizePredicateSet(phi, n1),
                                  VectorizePredicateSet(psi, n2)});

  // Brute force: one full-domain row per (phi_i, psi_j) pair, in product
  // order (Definition 2).
  ASSERT_EQ(implicit.rows(), p * r);
  int64_t row = 0;
  for (int i = 0; i < p; ++i) {
    for (int j = 0; j < r; ++j) {
      const Vector expected = BruteForceVectorize({phi[i], psi[j]}, domain);
      for (int64_t c = 0; c < domain.TotalSize(); ++c) {
        EXPECT_EQ(implicit(row, c), expected[static_cast<size_t>(c)]);
      }
      ++row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem2Test, ::testing::Range(0, 10));

// --- Proposition 1: vec(phi AND psi) x = vec(phi) X vec(psi)^T. ------------

TEST(Proposition1, DataMatrixForm) {
  Rng rng(3);
  const int64_t n1 = 4, n2 = 5;
  Domain domain({n1, n2});
  Predicate phi = Predicate::Range(1, 2);
  Predicate psi = Predicate::InSet({0, 3, 4});

  // Random data vector and its matrix form X (Definition 12).
  Vector x(static_cast<size_t>(n1 * n2));
  for (double& v : x) v = std::floor(rng.Uniform(0.0, 9.0));
  Matrix data_matrix(n1, n2);
  for (int64_t a = 0; a < n1; ++a) {
    for (int64_t b = 0; b < n2; ++b) {
      data_matrix(a, b) = x[static_cast<size_t>(domain.Flatten({a, b}))];
    }
  }

  const double lhs = Dot(BruteForceVectorize({phi, psi}, domain), x);
  // vec(phi) X vec(psi)^T.
  const Vector vp = VectorizePredicate(phi, n1);
  const Vector vq = VectorizePredicate(psi, n2);
  double rhs = 0.0;
  for (int64_t a = 0; a < n1; ++a) {
    for (int64_t b = 0; b < n2; ++b) {
      rhs += vp[static_cast<size_t>(a)] * data_matrix(a, b) *
             vq[static_cast<size_t>(b)];
    }
  }
  EXPECT_DOUBLE_EQ(lhs, rhs);
}

// --- Theorem 3: ||A_1 (x) ... (x) A_d||_1 = prod ||A_i||_1. ----------------

class Theorem3Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem3Test, KroneckerSensitivity) {
  Rng rng(static_cast<uint64_t>(200 + GetParam()));
  std::vector<Matrix> factors;
  const int d = static_cast<int>(rng.UniformInt(2, 3));
  for (int i = 0; i < d; ++i) {
    factors.push_back(Matrix::RandomUniform(rng.UniformInt(1, 4),
                                            rng.UniformInt(2, 4), &rng, -1.0,
                                            1.0));
  }
  EXPECT_NEAR(KronSensitivity(factors),
              KronExplicit(factors).MaxAbsColSum(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem3Test, ::testing::Range(0, 10));

// --- Theorem 5: ||W A^+||_F^2 = prod_i ||W_i A_i^+||_F^2. ------------------

class Theorem5Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem5Test, ErrorDecomposition) {
  Rng rng(static_cast<uint64_t>(300 + GetParam()));
  const int64_t n1 = rng.UniformInt(2, 5), n2 = rng.UniformInt(2, 5);
  Matrix w1 = Matrix::RandomUniform(rng.UniformInt(1, 5), n1, &rng, 0.0, 1.0);
  Matrix w2 = Matrix::RandomUniform(rng.UniformInt(1, 5), n2, &rng, 0.0, 1.0);
  Matrix a1 = Matrix::RandomUniform(n1 + 1, n1, &rng, 0.1, 1.0);
  Matrix a2 = Matrix::RandomUniform(n2 + 1, n2, &rng, 0.1, 1.0);

  const double lhs =
      MatMul(KronExplicit({w1, w2}), PseudoInverse(KronExplicit({a1, a2})))
          .FrobeniusNormSquared();
  const double rhs = MatMul(w1, PseudoInverse(a1)).FrobeniusNormSquared() *
                     MatMul(w2, PseudoInverse(a2)).FrobeniusNormSquared();
  EXPECT_NEAR(lhs, rhs, 1e-6 * std::max(1.0, rhs));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem5Test, ::testing::Range(0, 10));

// --- Theorem 6: union error sum_j w_j^2 prod_i ||W_i^(j) A_i^+||_F^2. ------

class Theorem6Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem6Test, UnionErrorDecomposition) {
  Rng rng(static_cast<uint64_t>(400 + GetParam()));
  const int64_t n1 = rng.UniformInt(2, 4), n2 = rng.UniformInt(2, 4);
  const int k = static_cast<int>(rng.UniformInt(1, 3));

  std::vector<Matrix> w1s, w2s;
  std::vector<double> weights;
  std::vector<Matrix> stacked;
  for (int j = 0; j < k; ++j) {
    w1s.push_back(Matrix::RandomUniform(rng.UniformInt(1, 3), n1, &rng));
    w2s.push_back(Matrix::RandomUniform(rng.UniformInt(1, 3), n2, &rng));
    weights.push_back(rng.Uniform(0.5, 2.0));
    Matrix block = KronExplicit({w1s.back(), w2s.back()});
    block.ScaleInPlace(weights.back());
    stacked.push_back(std::move(block));
  }
  Matrix a1 = Matrix::RandomUniform(n1 + 1, n1, &rng, 0.1, 1.0);
  Matrix a2 = Matrix::RandomUniform(n2 + 1, n2, &rng, 0.1, 1.0);

  const double lhs =
      MatMul(VStack(stacked), PseudoInverse(KronExplicit({a1, a2})))
          .FrobeniusNormSquared();
  double rhs = 0.0;
  for (int j = 0; j < k; ++j) {
    rhs += weights[static_cast<size_t>(j)] * weights[static_cast<size_t>(j)] *
           MatMul(w1s[static_cast<size_t>(j)], PseudoInverse(a1))
               .FrobeniusNormSquared() *
           MatMul(w2s[static_cast<size_t>(j)], PseudoInverse(a2))
               .FrobeniusNormSquared();
  }
  EXPECT_NEAR(lhs, rhs, 1e-6 * std::max(1.0, rhs));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem6Test, ::testing::Range(0, 10));

// --- Equation 7: (B (x) C) flat(X) = flat(B X C^T). ------------------------

TEST(Equation7, KroneckerMatVecIdentity) {
  Rng rng(7);
  Matrix b = Matrix::RandomUniform(4, 3, &rng, -1.0, 1.0);
  Matrix c = Matrix::RandomUniform(5, 6, &rng, -1.0, 1.0);
  // X is 3 x 6; flat stacks rows (row-major), matching the library layout.
  Matrix x(3, 6);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform(-1.0, 1.0);
  Vector flat_x(x.data(), x.data() + x.size());

  const Vector lhs = KronMatVec({b, c}, flat_x);
  Matrix bxct = MatMulNT(MatMul(b, x), c);
  ASSERT_EQ(static_cast<int64_t>(lhs.size()), bxct.size());
  for (int64_t i = 0; i < bxct.size(); ++i) {
    EXPECT_NEAR(lhs[static_cast<size_t>(i)], bxct.data()[i], 1e-12);
  }
}

// --- Proposition 3: C(a) C(b) = c(a|b) C(a&b). -----------------------------

TEST(Proposition3, MaskProductAlgebra) {
  const std::vector<int64_t> sizes = {2, 3, 4};
  MarginalsAlgebra algebra(sizes);
  Domain d(sizes);

  auto explicit_c = [&](uint32_t mask) {
    std::vector<Matrix> factors;
    for (int i = 0; i < 3; ++i) {
      const int64_t n = sizes[static_cast<size_t>(i)];
      if ((mask >> i) & 1) {
        factors.push_back(IdentityBlock(n));
      } else {
        factors.push_back(Matrix::Ones(n, n));  // 1 = T^T T.
      }
    }
    return KronExplicit(factors);
  };

  for (uint32_t a = 0; a < 8; ++a) {
    for (uint32_t b = 0; b < 8; ++b) {
      Matrix lhs = MatMul(explicit_c(a), explicit_c(b));
      Matrix rhs = explicit_c(a & b);
      rhs.ScaleInPlace(algebra.CWeight(a | b));
      EXPECT_LT(lhs.MaxAbsDiff(rhs), 1e-9) << "a=" << a << " b=" << b;
    }
  }
}

// The bit convention note: the paper writes C(a) with bit i selecting I vs 1;
// CWeight(m) = prod over the zero bits of m of n_i.
TEST(Proposition3, CWeightClosedForm) {
  MarginalsAlgebra algebra({2, 3, 4});
  EXPECT_DOUBLE_EQ(algebra.CWeight(0b111), 1.0);
  EXPECT_DOUBLE_EQ(algebra.CWeight(0b000), 24.0);
  EXPECT_DOUBLE_EQ(algebra.CWeight(0b001), 12.0);  // zero bits: sizes 3, 4.
  EXPECT_DOUBLE_EQ(algebra.CWeight(0b110), 2.0);   // zero bit: size 2.
}

// --- Proposition 4 in the eigenbasis: every C(a), hence every G(v), is -----
// diagonal in E_U = kron_i (Q_i if bit_i(U) else P_i), P_i = 11^T / n_i.

// Explicit G(theta^2) = sum_a theta_a^2 C(a) = M(theta)^T M(theta).
Matrix ExplicitGram(const std::vector<int64_t>& sizes, const Vector& theta) {
  const int64_t cells = Domain(sizes).TotalSize();
  Matrix acc = Matrix::Zeros(cells, cells);
  for (uint32_t mask = 0; mask < theta.size(); ++mask) {
    std::vector<Matrix> factors;
    for (size_t i = 0; i < sizes.size(); ++i) {
      factors.push_back(((mask >> i) & 1) ? IdentityBlock(sizes[i])
                                          : Matrix::Ones(sizes[i], sizes[i]));
    }
    acc.AddInPlace(KronExplicit(factors), theta[mask] * theta[mask]);
  }
  return acc;
}

// sum_U f_U E_U, explicitly.
Matrix ExplicitSpectral(const std::vector<int64_t>& sizes, const Vector& f) {
  const int64_t cells = Domain(sizes).TotalSize();
  Matrix acc = Matrix::Zeros(cells, cells);
  for (uint32_t u = 0; u < f.size(); ++u) {
    std::vector<Matrix> factors;
    for (size_t i = 0; i < sizes.size(); ++i) {
      const int64_t n = sizes[i];
      Matrix p = MatScale(Matrix::Ones(n, n), 1.0 / static_cast<double>(n));
      Matrix q = IdentityBlock(n);
      q.AddInPlace(p, -1.0);
      factors.push_back(((u >> i) & 1) ? q : p);
    }
    acc.AddInPlace(KronExplicit(factors), f[u]);
  }
  return acc;
}

class Proposition4Test : public ::testing::TestWithParam<int> {};

TEST_P(Proposition4Test, GAlgebraClosedUnderProducts) {
  // M^T M = sum_U a_U E_U and (sum_U E_U / a_U) M^T M = I; the product of
  // two such Grams has eigenvalues a_U b_U, so it stays in the algebra.
  Rng rng(static_cast<uint64_t>(500 + GetParam()));
  const std::vector<int64_t> sizes = {2, 3, 2};
  MarginalsAlgebra algebra(sizes);
  Vector theta(8), phi(8);
  for (double& x : theta) x = rng.Uniform(0.1, 1.5);
  for (double& x : phi) x = rng.Uniform(0.0, 1.5);

  const Matrix mtm = ExplicitGram(sizes, theta);
  const Vector a = algebra.Eigenvalues(theta);
  const Vector b = algebra.Eigenvalues(phi);
  Vector inv_a(8), ab(8);
  for (uint32_t u = 0; u < 8; ++u) {
    inv_a[u] = 1.0 / a[u];
    ab[u] = a[u] * b[u];
  }
  EXPECT_LT(ExplicitSpectral(sizes, a).MaxAbsDiff(mtm), 1e-10);
  EXPECT_LT(MatMul(ExplicitSpectral(sizes, inv_a), mtm)
                .MaxAbsDiff(Matrix::Identity(12)),
            1e-10);
  EXPECT_LT(MatMul(mtm, ExplicitGram(sizes, phi))
                .MaxAbsDiff(ExplicitSpectral(sizes, ab)),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Proposition4Test, ::testing::Range(0, 8));

TEST(Proposition4, EigenvaluesInvertG) {
  // G(u) G(v) = I when v's eigenvalues are 1/a_U for u = theta^2 — the
  // inverse behind OPT_M's RECONSTRUCT (Section 7.2).
  const std::vector<int64_t> sizes = {2, 3};
  MarginalsAlgebra algebra(sizes);
  Rng rng(9);
  Vector theta(4);
  for (double& x : theta) x = rng.Uniform(0.4, 1.2);  // theta_full > 0.

  const Vector a = algebra.Eigenvalues(theta);
  Vector inv_a(4);
  for (uint32_t u = 0; u < 4; ++u) inv_a[u] = 1.0 / a[u];
  const Matrix gram = ExplicitGram(sizes, theta);
  EXPECT_LT(ExplicitSpectral(sizes, a).MaxAbsDiff(gram), 1e-12);
  const Matrix product = MatMul(gram, ExplicitSpectral(sizes, inv_a));
  EXPECT_LT(product.MaxAbsDiff(Matrix::Identity(6)), 1e-12);
}

// --- Theorem 4 / 8: the O(pN^2) objective equals the O(N^3) reference. -----

class Theorem4Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem4Test, FastObjectiveMatchesReference) {
  Rng rng(static_cast<uint64_t>(600 + GetParam()));
  const int64_t n = rng.UniformInt(4, 16);
  const int p = static_cast<int>(rng.UniformInt(1, 4));
  Matrix gram = AllRangeGram(n);
  Matrix theta = Matrix::RandomUniform(p, n, &rng, 0.0, 1.0);
  const double fast = PIdentityObjective::TraceWithGram(theta, gram);
  const double reference = PIdentityObjective::EvalReference(theta, gram);
  EXPECT_NEAR(fast, reference, 1e-7 * std::max(1.0, reference));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorem4Test, ::testing::Range(0, 12));

}  // namespace
}  // namespace hdmm
