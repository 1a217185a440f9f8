#include "core/nnls.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/strategy.h"
#include "linalg/kron.h"
#include "linalg/lsmr.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

TEST(Nnls, RecoversNonNegativeExactSolution) {
  // When the unconstrained solution is already non-negative, NNLS must find
  // it: consistent system with x >= 0.
  Rng rng(1);
  Matrix a = Matrix::RandomUniform(12, 6, &rng, 0.0, 1.0);
  Vector x_true = {1.0, 0.5, 2.0, 0.0, 3.0, 0.25};
  Vector y = MatVec(a, x_true);

  DenseOperator op(a);
  NnlsResult res = SolveNnls(op, y);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.objective, 1e-8);
  for (size_t i = 0; i < x_true.size(); ++i) {
    EXPECT_NEAR(res.x[i], x_true[i], 1e-4) << "entry " << i;
  }
}

TEST(Nnls, SolutionIsNonNegative) {
  // Noisy measurements that drive the unconstrained solution negative.
  Rng rng(2);
  Matrix a = IdentityBlock(8);
  Vector y = {3.0, -2.5, 1.0, -0.5, 4.0, 0.0, -1.0, 2.0};
  DenseOperator op(a);
  NnlsResult res = SolveNnls(op, y);
  for (double v : res.x) EXPECT_GE(v, 0.0);
  // For identity A, NNLS is exactly entrywise clamping (up to first-order
  // solver accuracy).
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(res.x[i], std::max(y[i], 0.0), 1e-6);
  }
}

TEST(Nnls, MatchesUnconstrainedWhenInteriorOptimum) {
  Rng rng(3);
  Matrix a = Matrix::RandomUniform(15, 5, &rng, 0.1, 1.0);
  Vector x_true = {2.0, 1.0, 3.0, 0.7, 1.5};
  Vector y = MatVec(a, x_true);
  // Tiny perturbation keeps the optimum interior.
  for (double& v : y) v += 1e-3 * rng.Uniform(-1.0, 1.0);

  Vector x_ls = MatVec(PseudoInverse(a), y);
  DenseOperator op(a);
  NnlsResult res = SolveNnls(op, y);
  for (size_t i = 0; i < x_ls.size(); ++i) {
    EXPECT_NEAR(res.x[i], x_ls[i], 1e-4);
  }
}

TEST(Nnls, KktConditionsHold) {
  // At the NNLS optimum: gradient g = 2 A^T (A x - y) satisfies
  // g_i >= 0 where x_i == 0 and g_i == 0 where x_i > 0.
  Rng rng(4);
  Matrix a = Matrix::RandomUniform(10, 7, &rng, -1.0, 1.0);
  Vector y(10);
  for (double& v : y) v = rng.Uniform(-2.0, 2.0);

  DenseOperator op(a);
  NnlsOptions options;
  options.max_iterations = 5000;
  options.tolerance = 1e-14;
  NnlsResult res = SolveNnls(op, y, options);

  Vector residual = MatVec(a, res.x);
  for (size_t i = 0; i < residual.size(); ++i) residual[i] -= y[i];
  Vector grad = MatTVec(a, residual);
  for (size_t i = 0; i < grad.size(); ++i) {
    if (res.x[i] > 1e-7) {
      EXPECT_NEAR(grad[i], 0.0, 1e-5) << "active entry " << i;
    } else {
      EXPECT_GE(grad[i], -1e-5) << "zero entry " << i;
    }
  }
}

TEST(Nnls, WorksOnImplicitKroneckerOperator) {
  // Full-pipeline shape: Kron strategy measurement, NNLS reconstruction.
  KronOperator op({PrefixBlock(6), IdentityBlock(4)});
  Rng rng(5);
  Vector x_true(24);
  for (double& v : x_true) v = std::floor(rng.Uniform(0.0, 5.0));
  Vector y = op.Apply(x_true);
  for (double& v : y) v += rng.Laplace(0.4);

  NnlsResult res = SolveNnls(op, y);
  for (double v : res.x) EXPECT_GE(v, 0.0);
  // NNLS error must not exceed clamped-least-squares error by more than
  // numerical slack (it minimizes over a superset... of the clamped point).
  Vector x_ls = LsmrSolve(op, y).x;
  for (double& v : x_ls) v = std::max(v, 0.0);
  Vector fit_ls = op.Apply(x_ls);
  double obj_clamped = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    obj_clamped += (fit_ls[i] - y[i]) * (fit_ls[i] - y[i]);
  }
  EXPECT_LE(res.objective, obj_clamped + 1e-6);
}

TEST(Nnls, WarmStartReducesIterations) {
  Rng rng(6);
  Matrix a = Matrix::RandomUniform(20, 10, &rng, 0.0, 1.0);
  Vector x_true(10);
  for (double& v : x_true) v = rng.Uniform(0.0, 3.0);
  Vector y = MatVec(a, x_true);
  for (double& v : y) v += rng.Laplace(0.05);

  DenseOperator op(a);
  NnlsResult cold = SolveNnls(op, y);
  // Warm start from the (projected) unconstrained solution.
  Vector x0 = MatVec(PseudoInverse(a), y);
  NnlsResult warm = SolveNnls(op, y, x0);
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-5 * std::max(1.0, cold.objective));
}

TEST(Nnls, ZeroMeasurementsGiveZeroSolution) {
  DenseOperator op(PrefixBlock(5));
  NnlsResult res = SolveNnls(op, Vector(5, 0.0));
  EXPECT_TRUE(res.converged);
  for (double v : res.x) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Nnls, ReducesErrorOnSparseCounts) {
  // The deployment motivation: sparse count vectors + Laplace noise. NNLS
  // should (weakly) beat plain least squares against the ground truth here.
  const int64_t n = 64;
  KronOperator op({HierarchicalBlock(n, 4)});
  Rng rng(7);
  Vector x_true(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < 6; ++i) {
    x_true[static_cast<size_t>(rng.UniformInt(0, n - 1))] =
        static_cast<double>(rng.UniformInt(1, 30));
  }
  double ls_sq = 0.0, nnls_sq = 0.0;
  const int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    Vector y = op.Apply(x_true);
    for (double& v : y) v += rng.Laplace(2.0);
    Vector x_ls = LsmrSolve(op, y).x;
    NnlsResult res = SolveNnls(op, y, x_ls);
    for (size_t i = 0; i < x_true.size(); ++i) {
      ls_sq += (x_ls[i] - x_true[i]) * (x_ls[i] - x_true[i]);
      nnls_sq += (res.x[i] - x_true[i]) * (res.x[i] - x_true[i]);
    }
  }
  EXPECT_LE(nnls_sq, ls_sq * 1.02);
}

TEST(NnlsDeath, ShapeMismatch) {
  DenseOperator op(PrefixBlock(4));
  EXPECT_DEATH(SolveNnls(op, Vector(3, 1.0)), "");
}

}  // namespace
}  // namespace hdmm
