#include "optimize/lbfgsb.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hdmm {
namespace {

TEST(Lbfgsb, QuadraticUnconstrained) {
  // f(x) = sum (x_i - i)^2, minimum at x_i = i.
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    double fx = 0.0;
    if (g != nullptr) g->assign(x.size(), 0.0);
    for (size_t i = 0; i < x.size(); ++i) {
      double d = x[i] - static_cast<double>(i);
      fx += d * d;
      if (g != nullptr) (*g)[i] = 2.0 * d;
    }
    return fx;
  };
  Vector lower(5, -1e30), upper(5, 1e30);
  LbfgsbResult res = MinimizeLbfgsb(f, Vector(5, 10.0), lower, upper);
  EXPECT_TRUE(res.converged);
  for (size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(res.x[i], static_cast<double>(i), 1e-4);
}

TEST(Lbfgsb, ActiveBoundsRespected) {
  // Minimize (x-(-3))^2 with x >= 0: solution pinned at 0.
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    if (g != nullptr) g->assign(1, 2.0 * (x[0] + 3.0));
    return (x[0] + 3.0) * (x[0] + 3.0);
  };
  LbfgsbResult res = MinimizeNonNegative(f, Vector(1, 5.0));
  EXPECT_NEAR(res.x[0], 0.0, 1e-10);
}

TEST(Lbfgsb, Rosenbrock) {
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    double a = 1.0, b = 100.0;
    double fx = (a - x[0]) * (a - x[0]) +
                b * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0]);
    if (g != nullptr) {
      g->assign(2, 0.0);
      (*g)[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
      (*g)[1] = 2.0 * b * (x[1] - x[0] * x[0]);
    }
    return fx;
  };
  Vector lower(2, -10.0), upper(2, 10.0);
  LbfgsbOptions opts;
  opts.max_iterations = 2000;
  opts.pg_tolerance = 1e-8;
  LbfgsbResult res = MinimizeLbfgsb(f, {-1.2, 1.0}, lower, upper, opts);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 1.0, 1e-3);
}

TEST(Lbfgsb, BoxedQuadraticInteriorAndBoundary) {
  // f(x) = (x0-2)^2 + (x1+2)^2 over [0,1]^2: optimum (1, 0).
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    if (g != nullptr) {
      g->assign(2, 0.0);
      (*g)[0] = 2.0 * (x[0] - 2.0);
      (*g)[1] = 2.0 * (x[1] + 2.0);
    }
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  Vector lower(2, 0.0), upper(2, 1.0);
  LbfgsbResult res = MinimizeLbfgsb(f, {0.5, 0.5}, lower, upper);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 0.0, 1e-6);
}

TEST(Lbfgsb, ClampsInfeasibleStart) {
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    if (g != nullptr) g->assign(1, 2.0 * x[0]);
    return x[0] * x[0];
  };
  Vector lower(1, 1.0), upper(1, 2.0);
  LbfgsbResult res = MinimizeLbfgsb(f, Vector(1, -57.0), lower, upper);
  EXPECT_NEAR(res.x[0], 1.0, 1e-9);
}

// Classic test battery, parameterized over dimension where applicable.

TEST(Lbfgsb, BealeFunction) {
  // f(x, y) = (1.5 - x + xy)^2 + (2.25 - x + xy^2)^2 + (2.625 - x + xy^3)^2,
  // global minimum f = 0 at (3, 0.5).
  ObjectiveFn f = [](const Vector& v, Vector* g) {
    const double x = v[0], y = v[1];
    const double t1 = 1.5 - x + x * y;
    const double t2 = 2.25 - x + x * y * y;
    const double t3 = 2.625 - x + x * y * y * y;
    if (g != nullptr) {
      g->assign(2, 0.0);
      (*g)[0] = 2.0 * t1 * (y - 1.0) + 2.0 * t2 * (y * y - 1.0) +
                2.0 * t3 * (y * y * y - 1.0);
      (*g)[1] = 2.0 * t1 * x + 2.0 * t2 * 2.0 * x * y +
                2.0 * t3 * 3.0 * x * y * y;
    }
    return t1 * t1 + t2 * t2 + t3 * t3;
  };
  Vector lower(2, -4.5), upper(2, 4.5);
  LbfgsbOptions opts;
  opts.max_iterations = 2000;
  opts.pg_tolerance = 1e-10;
  LbfgsbResult res = MinimizeLbfgsb(f, {1.0, 1.0}, lower, upper, opts);
  EXPECT_NEAR(res.f, 0.0, 1e-8);
  EXPECT_NEAR(res.x[0], 3.0, 1e-3);
  EXPECT_NEAR(res.x[1], 0.5, 1e-3);
}

class LbfgsbDimensionTest : public ::testing::TestWithParam<int> {};

TEST_P(LbfgsbDimensionTest, ExtendedRosenbrock) {
  const int n = GetParam();
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    double fx = 0.0;
    if (g != nullptr) g->assign(x.size(), 0.0);
    for (size_t i = 0; i + 1 < x.size(); ++i) {
      const double a = x[i + 1] - x[i] * x[i];
      const double b = 1.0 - x[i];
      fx += 100.0 * a * a + b * b;
      if (g != nullptr) {
        (*g)[i] += -400.0 * x[i] * a - 2.0 * b;
        (*g)[i + 1] += 200.0 * a;
      }
    }
    return fx;
  };
  Vector lower(static_cast<size_t>(n), -10.0);
  Vector upper(static_cast<size_t>(n), 10.0);
  LbfgsbOptions opts;
  opts.max_iterations = 5000;
  opts.pg_tolerance = 1e-9;
  LbfgsbResult res =
      MinimizeLbfgsb(f, Vector(static_cast<size_t>(n), -1.0), lower, upper,
                     opts);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(res.x[static_cast<size_t>(i)], 1.0, 1e-3) << "coord " << i;
  }
}

TEST_P(LbfgsbDimensionTest, IllConditionedQuadratic) {
  // f(x) = sum kappa_i x_i^2 with condition number 10^4: convergence must
  // survive anisotropy (this is what the p-Identity landscape looks like).
  const int n = GetParam();
  ObjectiveFn f = [n](const Vector& x, Vector* g) {
    double fx = 0.0;
    if (g != nullptr) g->assign(x.size(), 0.0);
    for (size_t i = 0; i < x.size(); ++i) {
      const double k = std::pow(
          1e4, static_cast<double>(i) / std::max(1, n - 1));
      fx += k * x[i] * x[i];
      if (g != nullptr) (*g)[i] = 2.0 * k * x[i];
    }
    return fx;
  };
  LbfgsbResult res =
      MinimizeNonNegative(f, Vector(static_cast<size_t>(n), 3.0));
  EXPECT_LT(res.f, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Dims, LbfgsbDimensionTest,
                         ::testing::Values(2, 5, 20, 50));

TEST(Lbfgsb, InfeasiblePointsAreSteppedBack) {
  // The p-Identity objective returns +inf in cancellation regions; the line
  // search must back off instead of accepting the point.
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    if (g != nullptr) g->assign(1, 0.0);
    if (x[0] > 2.0) {
      return std::numeric_limits<double>::infinity();
    }
    // Constant slope pushing toward the infeasible region.
    if (g != nullptr) (*g)[0] = -1.0;
    return -x[0];
  };
  Vector lower(1, 0.0), upper(1, 1e30);
  LbfgsbOptions opts;
  opts.max_iterations = 50;
  LbfgsbResult res = MinimizeLbfgsb(f, Vector(1, 0.5), lower, upper, opts);
  EXPECT_LE(res.x[0], 2.0);
  EXPECT_TRUE(std::isfinite(res.f));
}

TEST(Lbfgsb, ReportsFunctionEvaluations) {
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    if (g != nullptr) g->assign(1, 2.0 * x[0]);
    return x[0] * x[0];
  };
  LbfgsbResult res = MinimizeNonNegative(f, Vector(1, 4.0));
  EXPECT_GT(res.function_evaluations, 0);
  EXPECT_GE(res.function_evaluations, res.iterations);
}

TEST(Lbfgsb, GradientOnlyAtAcceptedPoints) {
  // Rosenbrock from (-1.2, 1): the first unit step along -g lands far up
  // the valley wall, so the line search backtracks several times before it
  // accepts. Rejected trials must not ask for a gradient; each accepted
  // point asks for exactly one, at the trial the search just accepted.
  int gradients = 0;
  Vector last_trial;
  ObjectiveFn f = [&](const Vector& x, Vector* g) {
    const double a = 1.0 - x[0], b = x[1] - x[0] * x[0];
    if (g == nullptr) {
      last_trial = x;
    } else {
      if (gradients > 0) {
        EXPECT_EQ(x, last_trial) << "gradient " << gradients;
      }
      ++gradients;
      g->assign(2, 0.0);
      (*g)[0] = -2.0 * a - 400.0 * x[0] * b;
      (*g)[1] = 200.0 * b;
    }
    return a * a + 100.0 * b * b;
  };
  Vector lower(2, -10.0), upper(2, 10.0);
  LbfgsbOptions opts;
  opts.max_iterations = 10;  // Far from converged: every iteration accepts.
  LbfgsbResult res = MinimizeLbfgsb(f, {-1.2, 1.0}, lower, upper, opts);
  ASSERT_FALSE(res.converged);
  ASSERT_EQ(res.iterations, 10);
  EXPECT_EQ(gradients, res.iterations + 1);  // The start plus each step.
  EXPECT_EQ(gradients, res.gradient_evaluations);
  EXPECT_LT(gradients, res.function_evaluations);
}

TEST(Lbfgsb, ZeroIterationBudgetReturnsStart) {
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    if (g != nullptr) g->assign(1, 2.0 * x[0]);
    return x[0] * x[0];
  };
  LbfgsbOptions opts;
  opts.max_iterations = 0;
  LbfgsbResult res = MinimizeNonNegative(f, Vector(1, 4.0), opts);
  EXPECT_DOUBLE_EQ(res.x[0], 4.0);
}

TEST(Lbfgsb, AlreadyOptimalConvergesImmediately) {
  ObjectiveFn f = [](const Vector& x, Vector* g) {
    if (g != nullptr) g->assign(x.size(), 0.0);
    double fx = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      fx += x[i] * x[i];
      if (g != nullptr) (*g)[i] = 2.0 * x[i];
    }
    return fx;
  };
  LbfgsbResult res = MinimizeNonNegative(f, Vector(3, 0.0));
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 1);
}

}  // namespace
}  // namespace hdmm
