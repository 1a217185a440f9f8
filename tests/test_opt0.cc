#include "core/opt0.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "workload/building_blocks.h"

namespace hdmm {
namespace {

TEST(Opt0, BeatsIdentityOnPrefix) {
  // For the Prefix workload, identity is a poor strategy; OPT_0 must find
  // something substantially better.
  const int64_t n = 32;
  Matrix g = PrefixGram(n);
  double identity_error = g.Trace();
  Rng rng(1);
  Opt0Options opts;
  opts.p = static_cast<int>(n / 16);
  Opt0Result res = Opt0(g, opts, &rng);
  EXPECT_LT(res.error, 0.75 * identity_error);
}

TEST(Opt0, BeatsIdentityOnAllRange) {
  // At small n identity is close to optimal for AllRange (Table 4a shows a
  // ratio of only 1.38 even at n = 128); n = 64 with a few restarts shows a
  // solid improvement without making the test slow.
  const int64_t n = 64;
  Matrix g = AllRangeGram(n);
  double identity_error = g.Trace();
  Rng rng(2);
  Opt0Options opts;
  opts.p = 8;
  opts.restarts = 3;
  Opt0Result res = Opt0(g, opts, &rng);
  EXPECT_LT(res.error, 0.8 * identity_error);
}

TEST(Opt0, IdentityWorkloadKeepsIdentityLikeError) {
  // For W = I the optimal strategy is I itself (error n); OPT_0 should get
  // within a few percent.
  const int64_t n = 16;
  Matrix g = Matrix::Identity(n);
  Rng rng(3);
  Opt0Options opts;
  opts.p = 1;
  Opt0Result res = Opt0(g, opts, &rng);
  EXPECT_LT(res.error, 1.10 * static_cast<double>(n));
  EXPECT_GE(res.error, static_cast<double>(n) - 1e-6);
}

TEST(Opt0, RestartsNeverHurt) {
  const int64_t n = 16;
  Matrix g = AllRangeGram(n);
  Rng rng1(7), rng2(7);
  Opt0Options one;
  one.p = 2;
  one.restarts = 1;
  Opt0Options three = one;
  three.restarts = 3;
  double e1 = Opt0(g, one, &rng1).error;
  double e3 = Opt0(g, three, &rng2).error;
  EXPECT_LE(e3, e1 + 1e-9);
}

TEST(Opt0, WarmStartImproves) {
  const int64_t n = 16;
  Matrix g = PrefixGram(n);
  Rng rng(4);
  Matrix theta0 = Matrix::RandomUniform(2, n, &rng, 0.0, 1.0);
  PIdentityObjective obj(g, 2);
  Vector flat(theta0.data(), theta0.data() + theta0.size());
  double before = obj.Eval(flat, nullptr);
  Opt0Result res = Opt0WarmStart(g, theta0, LbfgsbOptions());
  EXPECT_LE(res.error, before);
}

TEST(Opt0, ErrorIsTheReferenceEvaluation) {
  // Opt0 scores its restarts by the dense reference evaluation, which
  // Opt0WarmStart does not compute, so the returned error is exactly
  // EvalReference of the returned Theta.
  const Matrix g = AllRangeGram(24);
  Rng rng(6);
  Opt0Options opts;
  opts.restarts = 3;
  const Opt0Result res = Opt0(g, opts, &rng);
  const double reference = PIdentityObjective::EvalReference(res.theta, g);
  EXPECT_EQ(std::memcmp(&res.error, &reference, sizeof(double)), 0)
      << res.error << " vs " << reference;
}

TEST(Opt0, WarmStartReportsTheOptimizerObjective) {
  // Opt0WarmStart's error is L-BFGS-B's own objective value at its Theta:
  // the fast-path objective, not a second (dense) evaluation.
  const int64_t n = 16;
  const Matrix g = PrefixGram(n);
  Rng rng(8);
  const Matrix theta0 = Matrix::RandomUniform(2, n, &rng, 0.0, 1.0);
  const Opt0Result res = Opt0WarmStart(g, theta0, LbfgsbOptions());
  PIdentityObjective obj(g, 2);
  const Vector flat(res.theta.data(), res.theta.data() + res.theta.size());
  EXPECT_EQ(res.error, obj.Eval(flat, nullptr));
}

TEST(Opt0, DefaultPConvention) {
  // Identity and Total factors are "simple": p = 1.
  EXPECT_EQ(DefaultP(IdentityBlock(64)), 1);
  EXPECT_EQ(DefaultP(TotalBlock(64)), 1);
  // Prefix is not: p = n/16.
  EXPECT_EQ(DefaultP(PrefixBlock(64)), 4);
  EXPECT_EQ(DefaultPFromSize(64), 4);
  EXPECT_EQ(DefaultPFromSize(8), 1);
}

TEST(Opt0, KeepsFirstRestartWhenAllNonFinite) {
  // A poisoned Gram makes every restart's error non-finite. The result must
  // still carry restart 0's full-sized parameterization (mirroring OptKron's
  // keep-restart-0 behavior) instead of an empty Theta.
  const int64_t n = 8;
  Matrix g(n, n);
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < n; ++j)
      g(i, j) = std::numeric_limits<double>::quiet_NaN();
  Rng rng(6);
  Opt0Options opts;
  opts.p = 2;
  opts.restarts = 3;
  opts.lbfgs.max_iterations = 3;
  Opt0Result res = Opt0(g, opts, &rng);
  EXPECT_EQ(res.theta.rows(), 2);
  EXPECT_EQ(res.theta.cols(), n);
  EXPECT_FALSE(std::isfinite(res.error));
}

TEST(Opt0, ThetaIsNonNegative) {
  const int64_t n = 12;
  Matrix g = PrefixGram(n);
  Rng rng(5);
  Opt0Options opts;
  opts.p = 2;
  Opt0Result res = Opt0(g, opts, &rng);
  for (int64_t i = 0; i < res.theta.rows(); ++i)
    for (int64_t j = 0; j < res.theta.cols(); ++j)
      EXPECT_GE(res.theta(i, j), 0.0);
}

}  // namespace
}  // namespace hdmm
