#include "core/gaussian.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/strategy.h"
#include "core/strategy_io.h"
#include "linalg/kron.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

TEST(Gaussian, L2SensitivityExplicit) {
  Matrix a = Matrix::FromRows({{3.0, 0.0}, {4.0, 1.0}});
  // Column 0: sqrt(9 + 16) = 5; column 1: 1.
  EXPECT_DOUBLE_EQ(L2Sensitivity(a), 5.0);
}

TEST(Gaussian, L2SensitivityFiniteWhereL1IsForEveryRepresentation) {
  // Squares of 1e300 overflow a double. L2 must still be finite, positive
  // and at most L1 wherever L1 is finite, or MeasureGaussian aborts on a
  // strategy Laplace can measure.
  const Matrix column = Matrix::FromRows({{1e300}, {1e300}});
  ExplicitStrategy expl(column);
  KronStrategy kron({column, IdentityBlock(2)});
  UnionKronStrategy union_kron({{Matrix::FromRows({{1e300, 1e300}})},
                                {Matrix::FromRows({{1e300, -1e300}})}},
                               {{0}, {1}});
  MarginalsStrategy marginals(Domain({2, 3}),
                              Vector{1e300, 1e300, 1e300, 1e300});
  for (const Strategy* s : std::vector<const Strategy*>{
           &expl, &kron, &union_kron, &marginals}) {
    const double l1 = s->Sensitivity();
    const double l2 = s->L2Sensitivity();
    ASSERT_TRUE(std::isfinite(l1)) << s->Name();
    EXPECT_TRUE(std::isfinite(l2)) << s->Name() << " L2 " << l2;
    EXPECT_GT(l2, 0.0) << s->Name();
    EXPECT_LE(l2, l1) << s->Name();
  }
  EXPECT_DOUBLE_EQ(expl.L2Sensitivity(), std::sqrt(2.0) * 1e300);
  EXPECT_DOUBLE_EQ(kron.L2Sensitivity(), std::sqrt(2.0) * 1e300);
  EXPECT_DOUBLE_EQ(union_kron.L2Sensitivity(), std::sqrt(2.0) * 1e300);
  EXPECT_DOUBLE_EQ(marginals.L2Sensitivity(), 2e300);
}

TEST(Gaussian, L2SensitivityPositiveWhereSquaresUnderflow) {
  // The mirror case: squares of 1e-200 underflow to zero, and a zero L2
  // sensitivity aborts MeasureGaussian just as an infinite one does.
  ExplicitStrategy tiny(Matrix::FromRows({{1e-200}, {1e-200}}));
  EXPECT_DOUBLE_EQ(tiny.L2Sensitivity(), std::sqrt(2.0) * 1e-200);
  const double v[] = {3e-170, 0.0, -4e-170};
  EXPECT_DOUBLE_EQ(L2Norm(v, 3), 5e-170);
  EXPECT_EQ(L2Norm(v + 1, 1), 0.0);
}

TEST(Gaussian, HugeEntryStrategyFileMeasuresUnderZCdp) {
  // ParseStrategy accepts this file (its L1 sensitivity, 2e300, is finite),
  // so it must measure under zCDP too: no L2 overflow to inf, no abort.
  std::string error;
  std::unique_ptr<Strategy> s = ParseStrategy(
      "hdmm-strategy v1\nkind explicit\nname huge\nmatrix 2x1 1e300,1e300\n",
      &error);
  ASSERT_NE(s, nullptr) << error;
  EXPECT_DOUBLE_EQ(s->Sensitivity(), 2e300);
  Rng rng(5);
  const Vector y = s->MeasureGaussian({1.0}, 0.5, &rng);
  ASSERT_EQ(y.size(), 2u);
  for (double v : y) EXPECT_TRUE(std::isfinite(v)) << v;
}

TEST(Gaussian, KronL2SensitivityMatchesExplicit) {
  Rng rng(1);
  Matrix a = Matrix::RandomUniform(3, 4, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(5, 2, &rng, -1.0, 1.0);
  double implicit = KronL2Sensitivity({a, b});
  double explicit_sens = L2Sensitivity(KronExplicit({a, b}));
  EXPECT_NEAR(implicit, explicit_sens, 1e-12);
}

TEST(Gaussian, ZCdpSigmaFormulaAndInverse) {
  // sigma = sens / sqrt(2 rho), exact for every rho > 0 — including budgets
  // worth eps >= 1, where the classic sqrt(2 ln(1.25/delta)) / eps
  // calibration is invalid.
  EXPECT_DOUBLE_EQ(GaussianSigmaFromRho(2.0, 0.5), 2.0);
  EXPECT_NEAR(GaussianSigmaFromRho(1.0, 8.0), 0.25, 1e-15);
  // Inverse: a release at sigma costs rho = sens^2 / (2 sigma^2).
  for (double rho : {0.01, 0.5, 2.0, 50.0}) {
    const double sigma = GaussianSigmaFromRho(3.0, rho);
    EXPECT_NEAR(9.0 / (2.0 * sigma * sigma), rho, 1e-12 * rho);
  }
}

TEST(Gaussian, BunSteinkeConversionClosedForm) {
  // rho-zCDP => (rho + 2 sqrt(rho ln(1/delta)), delta)-DP (Prop 1.3).
  const double rho = 0.5, delta = 1e-6;
  EXPECT_NEAR(RhoToEpsilon(rho, delta),
              rho + 2.0 * std::sqrt(rho * std::log(1e6)), 1e-12);
  EXPECT_EQ(RhoToEpsilon(0.0, delta), 0.0);
  // Pure eps-DP => (eps^2/2)-zCDP (Prop 1.4).
  EXPECT_DOUBLE_EQ(PureDpToRho(2.0), 2.0);
  EXPECT_DOUBLE_EQ(PureDpToRho(0.5), 0.125);
}

TEST(Gaussian, RhoFromEpsilonDeltaInvertsRhoToEpsilon) {
  for (double eps : {0.1, 1.0, 3.0, 10.0}) {
    for (double delta : {1e-9, 1e-6, 1e-3}) {
      const double rho = RhoFromEpsilonDelta(eps, delta);
      EXPECT_GT(rho, 0.0);
      EXPECT_NEAR(RhoToEpsilon(rho, delta), eps, 1e-9 * eps)
          << "eps=" << eps << " delta=" << delta;
    }
  }
}

TEST(Gaussian, StrategyMeasureGaussianCalibration) {
  // Strategy::MeasureGaussian draws N(0, sigma^2) with
  // sigma = L2Sensitivity() / sqrt(2 rho).
  KronStrategy id({IdentityBlock(4)});
  Rng rng(7);
  Vector x = {10.0, 20.0, 30.0, 40.0};
  const double rho = 0.125;
  const double sigma = GaussianSigmaFromRho(id.L2Sensitivity(), rho);
  EXPECT_DOUBLE_EQ(sigma, 2.0);  // sens 1, sqrt(2 * 0.125) = 0.5.
  double sum_sq = 0.0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    Vector y = id.MeasureGaussian(x, rho, &rng);
    for (size_t i = 0; i < 4; ++i) {
      double noise = y[i] - x[i];
      sum_sq += noise * noise;
    }
  }
  double var = sum_sq / (4 * trials);
  EXPECT_NEAR(var, sigma * sigma, 0.1 * sigma * sigma);
}

TEST(GaussianDeath, ZCdpRejectsInvalidRho) {
  KronStrategy id({IdentityBlock(4)});
  Vector x = {1.0, 2.0, 3.0, 4.0};
  Rng rng(9);
  EXPECT_DEATH(id.MeasureGaussian(x, 0.0, &rng), "rho");
  EXPECT_DEATH(id.MeasureGaussian(x, std::nan(""), &rng), "rho");
  EXPECT_DEATH(GaussianSigmaFromRho(0.0, 1.0), "sensitivity");
}

TEST(Gaussian, L2AdvantageOverL1ForDenseStrategies) {
  // For strategies with many small entries per column (e.g., Prefix), the
  // L2 sensitivity is much smaller than L1 — the structural reason the
  // Gaussian mechanism wins at high dimension.
  Matrix p = PrefixBlock(64);
  EXPECT_LT(L2Sensitivity(p), p.MaxAbsColSum());
  EXPECT_GT(p.MaxAbsColSum() / L2Sensitivity(p), 5.0);
}

}  // namespace
}  // namespace hdmm
