#include "core/pidentity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

TEST(PIdentity, BuildStrategyExample8) {
  // Example 8 of the paper: p = 2, N = 3.
  Matrix theta = Matrix::FromRows({{1, 2, 3}, {1, 1, 1}});
  Matrix a = PIdentityObjective::BuildStrategy(theta);
  ASSERT_EQ(a.rows(), 5);
  ASSERT_EQ(a.cols(), 3);
  EXPECT_NEAR(a(0, 0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(a(1, 1), 0.25, 1e-12);
  EXPECT_NEAR(a(2, 2), 0.2, 1e-12);
  EXPECT_NEAR(a(3, 0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(a(3, 1), 0.5, 1e-12);
  EXPECT_NEAR(a(3, 2), 0.6, 1e-12);
  EXPECT_NEAR(a(4, 0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(a(4, 1), 0.25, 1e-12);
  EXPECT_NEAR(a(4, 2), 0.2, 1e-12);
}

TEST(PIdentity, StrategyHasUnitSensitivity) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    Matrix theta = Matrix::RandomUniform(3, 7, &rng, 0.0, 2.0);
    Matrix a = PIdentityObjective::BuildStrategy(theta);
    EXPECT_NEAR(a.MaxAbsColSum(), 1.0, 1e-12);
    // Every column, not just the max.
    Vector cs = a.AbsColSums();
    for (double v : cs) EXPECT_NEAR(v, 1.0, 1e-12);
  }
}

TEST(PIdentity, ObjectiveMatchesReference) {
  // The O(pN^2) Woodbury objective equals the O(N^3) pinv-based reference.
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    int64_t n = 6 + trial;
    int p = 2 + trial % 3;
    Matrix theta = Matrix::RandomUniform(p, n, &rng, 0.0, 1.0);
    Matrix w = Matrix::RandomUniform(9, n, &rng, 0.0, 1.0);
    Matrix gram = Gram(w);
    PIdentityObjective obj(gram, p);
    Vector flat(theta.data(), theta.data() + theta.size());
    double fast = obj.Eval(flat, nullptr);
    double ref = PIdentityObjective::EvalReference(theta, gram);
    EXPECT_NEAR(fast, ref, 1e-7 * std::max(1.0, std::fabs(ref)));
  }
}

TEST(PIdentity, ObjectiveIsSquaredErrorOfStrategy) {
  // tr[(A^T A)^{-1} W^T W] == ||W A^+||_F^2 for the supported workload.
  Rng rng(3);
  int64_t n = 8;
  Matrix theta = Matrix::RandomUniform(2, n, &rng, 0.1, 1.0);
  Matrix w = PrefixBlock(n);
  PIdentityObjective obj(Gram(w), 2);
  Vector flat(theta.data(), theta.data() + theta.size());
  double c = obj.Eval(flat, nullptr);
  Matrix a = PIdentityObjective::BuildStrategy(theta);
  Matrix wap = MatMul(w, PseudoInverse(a));
  EXPECT_NEAR(c, wap.FrobeniusNormSquared(), 1e-7 * c);
}

// Property: analytic gradient matches central finite differences.
class PIdentityGradientTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PIdentityGradientTest, FiniteDifference) {
  auto [n, p] = GetParam();
  Rng rng(static_cast<uint64_t>(17 * n + p));
  Matrix w = Matrix::RandomUniform(n + 2, n, &rng, 0.0, 1.0);
  Matrix gram = Gram(w);
  PIdentityObjective obj(gram, p);
  Matrix theta = Matrix::RandomUniform(p, n, &rng, 0.1, 1.0);
  Vector flat(theta.data(), theta.data() + theta.size());

  Vector grad;
  double f0 = obj.Eval(flat, &grad);
  ASSERT_TRUE(std::isfinite(f0));

  const double h = 1e-5;
  for (size_t idx = 0; idx < flat.size(); idx += 3) {  // Sample coordinates.
    Vector plus = flat, minus = flat;
    plus[idx] += h;
    minus[idx] -= h;
    double fp = obj.Eval(plus, nullptr);
    double fm = obj.Eval(minus, nullptr);
    double fd = (fp - fm) / (2.0 * h);
    EXPECT_NEAR(grad[idx], fd, 1e-3 * std::max(1.0, std::fabs(fd)))
        << "coordinate " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PIdentityGradientTest,
    ::testing::Values(std::make_pair(5, 1), std::make_pair(8, 2),
                      std::make_pair(10, 4), std::make_pair(6, 6)));

// The dense form of the gradient (docs/pidentity_gradient.md), in O(N^3):
// X = A^T A, Y = X^{-1} G X^{-1}, Z = D Y D and
//   dC/dTheta = -2 (Theta D) Y D + 2 * 1_p (r .* d)^T,
//   r_j = Z_jj + sum_i Theta_ij (Theta Z)_ij.
Vector DenseReferenceGradient(const Matrix& theta, const Matrix& gram) {
  const int64_t p = theta.rows();
  const int64_t n = theta.cols();
  Matrix x = Gram(PIdentityObjective::BuildStrategy(theta));
  Matrix l;
  EXPECT_TRUE(CholeskyFactor(x, &l));
  Matrix x_inv;
  CholeskySolveMatrixInto(l, Matrix::Identity(n), &x_inv);
  const Matrix y = MatMul(MatMul(x_inv, gram), x_inv);
  Vector d(static_cast<size_t>(n), 1.0);
  for (int64_t i = 0; i < p; ++i)
    for (int64_t j = 0; j < n; ++j) d[static_cast<size_t>(j)] += theta(i, j);
  for (double& v : d) v = 1.0 / v;
  const Matrix dmat = Matrix::Diagonal(d);
  const Matrix z = MatMul(MatMul(dmat, y), dmat);
  const Matrix theta_z = MatMul(theta, z);
  const Matrix first = MatMul(MatMul(MatMul(theta, dmat), y), dmat);
  Vector grad(static_cast<size_t>(p * n));
  for (int64_t j = 0; j < n; ++j) {
    double r = z(j, j);
    for (int64_t i = 0; i < p; ++i) r += theta(i, j) * theta_z(i, j);
    for (int64_t i = 0; i < p; ++i) {
      grad[static_cast<size_t>(i * n + j)] =
          -2.0 * first(i, j) + 2.0 * r * d[static_cast<size_t>(j)];
    }
  }
  return grad;
}

// Eval's O(p^2 N) gradient against the dense formula on the building blocks
// OPT_0 meets, from ordinary starts to the large Theta the line search
// reaches on Total and AllRange. The finite-difference test above covers
// only small random Grams.
TEST(PIdentity, GradientMatchesDenseReference) {
  struct Case {
    std::string name;
    Matrix gram;
    double lo, hi;
  };
  std::vector<Case> cases;
  for (double hi : {0.5, 1.0, 2.0}) {
    cases.push_back({"AllRange(100)", AllRangeGram(100), 0.0, hi});
    cases.push_back({"AllRange(115)", AllRangeGram(115), 0.0, hi});
    cases.push_back({"Prefix(50)", PrefixGram(50), 0.0, hi});
    cases.push_back({"width(13) n=64", WidthRangeGram(64, 13), 0.0, hi});
    cases.push_back({"Identity(64)", Matrix::Identity(64), 0.0, hi});
    cases.push_back({"Total(20)", Gram(TotalBlock(20)), 0.0, hi});
  }
  cases.push_back({"Total(20)", Gram(TotalBlock(20)), 50.0, 200.0});
  cases.push_back({"AllRange(75)", AllRangeGram(75), 0.0, 30.0});

  Rng rng(31);
  for (const Case& c : cases) {
    const int64_t n = c.gram.rows();
    const int p = static_cast<int>(std::max<int64_t>(2, n / 16));
    const Matrix theta = Matrix::RandomUniform(p, n, &rng, c.lo, c.hi);
    const Vector flat(theta.data(), theta.data() + theta.size());
    PIdentityObjective obj(c.gram, p);
    Vector grad;
    ASSERT_TRUE(std::isfinite(obj.Eval(flat, &grad)))
        << c.name << " Theta ~ U[" << c.lo << ", " << c.hi << "]";
    const Vector ref = DenseReferenceGradient(theta, c.gram);
    double scale = 0.0, err = 0.0;
    for (size_t k = 0; k < ref.size(); ++k) {
      scale = std::max(scale, std::fabs(ref[k]));
      err = std::max(err, std::fabs(grad[k] - ref[k]));
    }
    EXPECT_LE(err, 1e-8 * scale)
        << c.name << " Theta ~ U[" << c.lo << ", " << c.hi << "], p = " << p;
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// L-BFGS-B evaluates a trial without a gradient and then asks for the
// gradient at the same point; Eval answers the second call from the
// trial's terms. That must give the bits a fresh objective gives, and any
// other point, or one that was infeasible, must be evaluated from scratch.
TEST(PIdentity, AcceptedPointReusesTrialTerms) {
  const int64_t n = 40;
  const int p = 3;
  const Matrix gram = AllRangeGram(n);
  Rng rng(41);
  const Matrix t1 = Matrix::RandomUniform(p, n, &rng, 0.0, 1.0);
  const Matrix t2 = Matrix::RandomUniform(p, n, &rng, 0.0, 1.0);
  const Vector x1(t1.data(), t1.data() + t1.size());
  const Vector x2(t2.data(), t2.data() + t2.size());
  Vector x3 = x1;  // x1 with its last entry moved.
  x3.back() += 1e-3;
  auto fresh = [&](const Vector& x, Vector* g) {
    PIdentityObjective obj(gram, p);
    return obj.Eval(x, g);
  };

  PIdentityObjective obj(gram, p);
  Vector g, g_ref;
  const double f_trial = obj.Eval(x1, nullptr);
  const double f = obj.Eval(x1, &g);
  const double f_ref = fresh(x1, &g_ref);
  ASSERT_TRUE(std::isfinite(f_ref));
  EXPECT_TRUE(SameBits(f_trial, f_ref));
  EXPECT_TRUE(SameBits(f, f_ref));
  EXPECT_TRUE(SameBits(g, g_ref));

  for (const Vector* other : std::vector<const Vector*>{&x2, &x3}) {
    obj.Eval(x1, nullptr);
    const double f_other = obj.Eval(*other, &g);
    Vector g_other;
    EXPECT_TRUE(SameBits(f_other, fresh(*other, &g_other)));
    EXPECT_TRUE(SameBits(g, g_other));
    EXPECT_FALSE(SameBits(g, g_ref));  // The point really moved the gradient.
  }

  // A uniform Theta = t = 2000 against the all-ones Gram puts the exact
  // objective at 1 / (1 + n t^2) = 1.6e-8 of term1, below the trust floor:
  // the point is infeasible, whether asked once or twice.
  const Matrix total = Gram(TotalBlock(16));
  PIdentityObjective flat_obj(total, 1);
  const Vector x_inf(16, 2000.0);
  EXPECT_TRUE(std::isinf(flat_obj.Eval(x_inf, nullptr)));
  Vector g_inf(16, 7.0);
  EXPECT_TRUE(std::isinf(flat_obj.Eval(x_inf, &g_inf)));
  EXPECT_TRUE(SameBits(g_inf, Vector(16, 0.0)));
  // A feasible point after the infeasible one is evaluated from scratch.
  const Vector x_ok(16, 0.5);
  Vector g_ok, g_ok_ref;
  PIdentityObjective fresh_obj(total, 1);
  EXPECT_TRUE(SameBits(flat_obj.Eval(x_ok, &g_ok),
                       fresh_obj.Eval(x_ok, &g_ok_ref)));
  EXPECT_TRUE(SameBits(g_ok, g_ok_ref));
}

TEST(PIdentity, TraceWithGramMatchesEval) {
  Rng rng(4);
  int64_t n = 7;
  int p = 3;
  Matrix theta = Matrix::RandomUniform(p, n, &rng, 0.1, 1.0);
  Matrix g = AllRangeGram(n);
  PIdentityObjective obj(g, p);
  Vector flat(theta.data(), theta.data() + theta.size());
  EXPECT_NEAR(obj.Eval(flat, nullptr),
              PIdentityObjective::TraceWithGram(theta, g), 1e-9);
}

TEST(PIdentity, TraceWithGramStableOnRankOneGram) {
  // tr[(A^T A)^{-1} 1 1^T] = || X^{-1/2} 1 ||^2 is tiny when the strategy
  // has a heavy total-like row; the Woodbury fast path cancels and must fall
  // back to the stable dense evaluation (this was a real crash: the [RxT;
  // TxR] union workload in Table 4b).
  const int64_t n = 32;
  Matrix theta = Matrix::Ones(1, n);  // Heavy total row.
  theta.ScaleInPlace(50.0);
  Matrix total_gram = Gram(TotalBlock(n));  // Rank-1 all-ones.
  double fast = PIdentityObjective::TraceWithGram(theta, total_gram);
  double ref = PIdentityObjective::EvalReference(theta, total_gram);
  ASSERT_TRUE(std::isfinite(fast));
  EXPECT_NEAR(fast, ref, 1e-6 * std::max(1.0, ref));
}

TEST(PIdentity, EvalRejectsCancellationRegion) {
  // Extreme Theta drives the objective below the rounding floor: Eval must
  // report infeasible rather than returning cancellation garbage.
  const int64_t n = 16;
  Matrix gram = Gram(TotalBlock(n));
  PIdentityObjective obj(gram, 1);
  Vector flat(static_cast<size_t>(n), 1e9);
  double f = obj.Eval(flat, nullptr);
  EXPECT_TRUE(std::isinf(f) || f > 0.0);
}

TEST(PIdentity, ZeroThetaIsIdentityStrategy) {
  // Theta = 0 gives A = I, so C = tr[G].
  int64_t n = 6;
  Matrix g = PrefixGram(n);
  PIdentityObjective obj(g, 2);
  Vector flat(static_cast<size_t>(2 * n), 0.0);
  EXPECT_NEAR(obj.Eval(flat, nullptr), g.Trace(), 1e-9);
}

}  // namespace
}  // namespace hdmm
