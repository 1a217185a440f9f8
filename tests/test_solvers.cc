#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cg.h"
#include "linalg/lsmr.h"
#include "linalg/pinv.h"
#include "linalg/trace_estimator.h"

namespace hdmm {
namespace {

TEST(Lsmr, SolvesConsistentSystem) {
  Rng rng(1);
  Matrix a = Matrix::RandomUniform(12, 8, &rng, -1.0, 1.0);
  Vector x_true(8);
  for (auto& v : x_true) v = rng.Uniform(-1.0, 1.0);
  Vector b = MatVec(a, x_true);
  DenseOperator op(a);
  LsmrResult res = LsmrSolve(op, b);
  EXPECT_TRUE(res.converged);
  for (size_t i = 0; i < x_true.size(); ++i)
    EXPECT_NEAR(res.x[i], x_true[i], 1e-6);
}

TEST(Lsmr, MatchesPinvOnLeastSquares) {
  Rng rng(2);
  Matrix a = Matrix::RandomUniform(15, 6, &rng, -1.0, 1.0);
  Vector b(15);
  for (auto& v : b) v = rng.Uniform(-1.0, 1.0);
  DenseOperator op(a);
  LsmrResult res = LsmrSolve(op, b);
  Vector ref = MatVec(PseudoInverse(a), b);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(res.x[i], ref[i], 1e-6);
}

TEST(Lsmr, ZeroRhs) {
  Rng rng(3);
  Matrix a = Matrix::RandomUniform(5, 4, &rng);
  DenseOperator op(a);
  LsmrResult res = LsmrSolve(op, Vector(5, 0.0));
  EXPECT_TRUE(res.converged);
  for (double v : res.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, SolvesSpdSystem) {
  Rng rng(4);
  Matrix a = Matrix::RandomUniform(10, 7, &rng, -1.0, 1.0);
  Matrix g = Gram(a);
  for (int64_t i = 0; i < 7; ++i) g(i, i) += 1.0;
  Vector b(7);
  for (auto& v : b) v = rng.Uniform(-1.0, 1.0);
  DenseOperator op(g);
  CgResult res = CgSolve(op, b);
  EXPECT_TRUE(res.converged);
  Vector back = MatVec(g, res.x);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(back[i], b[i], 1e-7);
}

TEST(TraceEstimator, ApproximatesExactTrace) {
  Rng rng(5);
  Matrix a = Matrix::RandomUniform(20, 10, &rng, -1.0, 1.0);
  Matrix x = Gram(a);
  for (int64_t i = 0; i < 10; ++i) x(i, i) += 2.0;
  Matrix b = Matrix::RandomUniform(14, 10, &rng, -1.0, 1.0);
  Matrix g = Gram(b);

  double exact = TracePinvGram(x, g);
  DenseOperator xop(x), gop(g);
  TraceEstimatorOptions opts;
  opts.num_samples = 600;
  double est = EstimateTraceInvProduct(xop, gop, &rng, opts);
  // Hutchinson with 600 samples should land within ~10%.
  EXPECT_NEAR(est, exact, 0.12 * std::fabs(exact));
}

TEST(StackedOperator, ApplyAndTranspose) {
  Rng rng(6);
  Matrix a = Matrix::RandomUniform(3, 5, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(4, 5, &rng, -1.0, 1.0);
  auto sa = std::make_shared<DenseOperator>(a);
  auto sb = std::make_shared<DenseOperator>(b);
  StackedOperator stack({sa, sb});
  EXPECT_EQ(stack.Rows(), 7);
  Vector x(5, 1.0);
  Vector y = stack.Apply(x);
  Vector ya = MatVec(a, x), yb = MatVec(b, x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y[static_cast<size_t>(i)], ya[static_cast<size_t>(i)], 1e-12);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(y[static_cast<size_t>(3 + i)], yb[static_cast<size_t>(i)], 1e-12);

  Vector z(7);
  for (auto& v : z) v = rng.Uniform(-1.0, 1.0);
  Vector t = stack.ApplyTranspose(z);
  Matrix full = VStack({a, b});
  Vector ref = MatTVec(full, z);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_NEAR(t[i], ref[i], 1e-12);
}

}  // namespace
}  // namespace hdmm
