// Privacy-calibration tests: the epsilon-DP guarantee of Theorem 7 reduces
// to (a) the sensitivity used for noise calibration dominating the true
// worst-case neighboring-database distance, and (b) the noise actually being
// Laplace with scale sensitivity/epsilon. Both are verified directly here,
// per strategy representation.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hdmm.h"
#include "core/strategy.h"
#include "linalg/kron.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

// True sensitivity by definition: neighboring databases differ in one
// record, i.e. x' = x +- e_j, so max_j ||A e_j||_1 over all cells j.
double BruteForceSensitivity(const Matrix& a) {
  double best = 0.0;
  for (int64_t j = 0; j < a.cols(); ++j) {
    double col = 0.0;
    for (int64_t i = 0; i < a.rows(); ++i) col += std::abs(a(i, j));
    best = std::max(best, col);
  }
  return best;
}

TEST(Privacy, ExplicitSensitivityMatchesDefinition) {
  Rng rng(1);
  for (int trial = 0; trial < 8; ++trial) {
    Matrix a = Matrix::RandomUniform(rng.UniformInt(2, 8),
                                     rng.UniformInt(2, 8), &rng, -1.0, 1.0);
    ExplicitStrategy s(a);
    EXPECT_NEAR(s.Sensitivity(), BruteForceSensitivity(a), 1e-12);
  }
}

TEST(Privacy, KronSensitivityMatchesDefinition) {
  Rng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Matrix> factors = {
        Matrix::RandomUniform(rng.UniformInt(1, 4), rng.UniformInt(2, 4),
                              &rng, 0.0, 1.0),
        Matrix::RandomUniform(rng.UniformInt(1, 4), rng.UniformInt(2, 4),
                              &rng, 0.0, 1.0)};
    KronStrategy s(factors);
    EXPECT_NEAR(s.Sensitivity(), BruteForceSensitivity(KronExplicit(factors)),
                1e-10);
  }
}

TEST(Privacy, MarginalsSensitivityMatchesDefinition) {
  Domain d({3, 4});
  Rng rng(3);
  Vector theta(4);
  for (double& v : theta) v = rng.Uniform(0.1, 2.0);
  MarginalsStrategy s(d, theta);
  // Explicit M(theta): stack the weighted marginal blocks.
  std::vector<Matrix> blocks;
  for (uint32_t m = 0; m < 4; ++m) {
    blocks.push_back(MarginalProduct(d, m, theta[m]).Explicit());
  }
  EXPECT_NEAR(s.Sensitivity(), BruteForceSensitivity(VStack(blocks)), 1e-10);
}

// True L2 sensitivity by definition: max_j ||A e_j||_2 over all cells j —
// the quantity Gaussian noise is calibrated to.
double BruteForceL2Sensitivity(const Matrix& a) {
  double best = 0.0;
  for (int64_t j = 0; j < a.cols(); ++j) {
    double col = 0.0;
    for (int64_t i = 0; i < a.rows(); ++i) col += a(i, j) * a(i, j);
    best = std::max(best, col);
  }
  return std::sqrt(best);
}

TEST(Privacy, ExplicitL2SensitivityMatchesDefinition) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    Matrix a = Matrix::RandomUniform(rng.UniformInt(2, 8),
                                     rng.UniformInt(2, 8), &rng, -1.0, 1.0);
    ExplicitStrategy s(a);
    EXPECT_NEAR(s.L2Sensitivity(), BruteForceL2Sensitivity(a), 1e-12);
  }
}

TEST(Privacy, KronL2SensitivityMatchesDefinition) {
  Rng rng(12);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Matrix> factors = {
        Matrix::RandomUniform(rng.UniformInt(1, 4), rng.UniformInt(2, 4),
                              &rng, -1.0, 1.0),
        Matrix::RandomUniform(rng.UniformInt(1, 4), rng.UniformInt(2, 4),
                              &rng, -1.0, 1.0)};
    KronStrategy s(factors);
    EXPECT_NEAR(s.L2Sensitivity(),
                BruteForceL2Sensitivity(KronExplicit(factors)), 1e-10);
  }
}

TEST(Privacy, MarginalsL2SensitivityMatchesDefinition) {
  Domain d({3, 4});
  Rng rng(13);
  Vector theta(4);
  for (double& v : theta) v = rng.Uniform(0.1, 2.0);
  MarginalsStrategy s(d, theta);
  std::vector<Matrix> blocks;
  for (uint32_t m = 0; m < 4; ++m) {
    blocks.push_back(MarginalProduct(d, m, theta[m]).Explicit());
  }
  EXPECT_NEAR(s.L2Sensitivity(), BruteForceL2Sensitivity(VStack(blocks)),
              1e-10);
}

TEST(Privacy, UnionKronL2SensitivityDominatesDefinition) {
  // The stacked upper bound must never under-report — Gaussian noise
  // calibrated below the true L2 sensitivity would void the zCDP guarantee.
  Rng rng(14);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Matrix> part_a = {Matrix::RandomUniform(
        rng.UniformInt(2, 4), 4, &rng, -1.0, 1.0)};
    std::vector<Matrix> part_b = {Matrix::RandomUniform(
        rng.UniformInt(2, 4), 4, &rng, -1.0, 1.0)};
    UnionKronStrategy s({part_a, part_b}, {{0}, {1}}, "u");
    Matrix stacked = VStack({part_a[0], part_b[0]});
    EXPECT_GE(s.L2Sensitivity() + 1e-12, BruteForceL2Sensitivity(stacked))
        << "trial " << trial;
  }
}

TEST(Privacy, UnionKronSensitivityDominatesDefinition) {
  // The union strategy's sensitivity must never under-report (that would
  // break the DP guarantee); for uniform-column-sum parts it is exact.
  UnionKronStrategy s({{MatScale(PrefixBlock(4), 0.3)},
                       {MatScale(IdentityBlock(4), 0.7)}},
                      {{0}, {1}}, "u");
  Matrix stacked = VStack(
      {MatScale(PrefixBlock(4), 0.3), MatScale(IdentityBlock(4), 0.7)});
  EXPECT_GE(s.Sensitivity() + 1e-12, BruteForceSensitivity(stacked));
}

// The differential-privacy inequality itself, checked analytically: for the
// Laplace mechanism with scale b = sens/eps, the log-density ratio of any
// output y under neighboring inputs x, x' is
//   sum_i (|y_i - (Ax')_i| - |y_i - (Ax)_i|) / b  <=  ||A(x - x')||_1 / b
//   <= sens / b = eps.
TEST(Privacy, LaplaceDensityRatioBoundedByEpsilon) {
  Rng rng(4);
  const double eps = 0.7;
  Matrix a = PrefixBlock(6);
  const double sens = BruteForceSensitivity(a);
  const double b = sens / eps;

  for (int trial = 0; trial < 200; ++trial) {
    // Random database and a random neighbor (one record added/removed).
    Vector x(6);
    for (double& v : x) v = std::floor(rng.Uniform(0.0, 10.0));
    Vector x_neighbor = x;
    const int64_t j = rng.UniformInt(0, 5);
    x_neighbor[static_cast<size_t>(j)] += (rng.UniformInt(0, 1) == 0 &&
                                           x_neighbor[static_cast<size_t>(j)] > 0)
                                              ? -1.0
                                              : 1.0;
    // Random output in a wide box around the true answers.
    Vector ax = MatVec(a, x);
    Vector ax2 = MatVec(a, x_neighbor);
    double log_ratio = 0.0;
    for (size_t i = 0; i < ax.size(); ++i) {
      const double y = ax[i] + rng.Uniform(-30.0, 30.0);
      log_ratio += (std::abs(y - ax2[i]) - std::abs(y - ax[i])) / b;
    }
    EXPECT_LE(log_ratio, eps + 1e-9);
    EXPECT_GE(log_ratio, -eps - 1e-9);
  }
}

// Strategy::Measure and Strategy::MeasureGaussian are the only places HDMM
// draws noise, so their calibration is checked once per strategy
// representation, each against the strategy's own sensitivity.
enum class Representation { kExplicit, kKron, kUnionKron, kMarginals };

std::unique_ptr<Strategy> SmallStrategy(Representation r) {
  switch (r) {
    case Representation::kExplicit:
      return std::make_unique<ExplicitStrategy>(PrefixBlock(4));
    case Representation::kKron:
      return std::make_unique<KronStrategy>(
          std::vector<Matrix>{PrefixBlock(4)});
    case Representation::kUnionKron:
      return std::make_unique<UnionKronStrategy>(
          std::vector<std::vector<Matrix>>{{MatScale(PrefixBlock(4), 0.3)},
                                           {MatScale(IdentityBlock(4), 0.7)}},
          std::vector<std::vector<int>>{{0}, {1}}, "u");
    case Representation::kMarginals:
      return std::make_unique<MarginalsStrategy>(
          Domain({2, 3}), Vector{0.5, 1.0, 0.7, 1.2});
  }
  return nullptr;
}

std::string RepresentationName(
    const ::testing::TestParamInfo<Representation>& info) {
  switch (info.param) {
    case Representation::kExplicit:
      return "Explicit";
    case Representation::kKron:
      return "Kron";
    case Representation::kUnionKron:
      return "UnionKron";
    case Representation::kMarginals:
      return "Marginals";
  }
  return "Unknown";
}

// Mean and variance of the noise y - A x over repeated measurements of a
// fixed database.
struct NoiseMoments {
  double mean = 0.0;
  double variance = 0.0;
};

template <typename MeasureFn>
NoiseMoments MeasureNoiseMoments(const Strategy& s, MeasureFn measure) {
  Vector x(static_cast<size_t>(s.DomainSize()));
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(3 * i % 7);
  const Vector ax = s.Apply(x);
  const int trials = 20000;
  double sum = 0.0, sum_sq = 0.0;
  int64_t count = 0;
  for (int t = 0; t < trials; ++t) {
    const Vector y = measure(x);
    for (size_t i = 0; i < y.size(); ++i) {
      const double noise = y[i] - ax[i];
      sum += noise;
      sum_sq += noise * noise;
      ++count;
    }
  }
  NoiseMoments m;
  m.mean = sum / static_cast<double>(count);
  m.variance = sum_sq / static_cast<double>(count) - m.mean * m.mean;
  return m;
}

class StrategyNoiseTest : public ::testing::TestWithParam<Representation> {};

TEST_P(StrategyNoiseTest, MeasureNoiseHasLaplaceVariance) {
  // Var[Lap(b)] = 2 b^2 with b = sens / eps.
  Rng rng(5);
  const std::unique_ptr<Strategy> s = SmallStrategy(GetParam());
  const double eps = 1.3;
  const double b = s->Sensitivity() / eps;
  const NoiseMoments m = MeasureNoiseMoments(
      *s, [&](const Vector& x) { return s->Measure(x, eps, &rng); });
  EXPECT_NEAR(m.mean, 0.0, 0.05 * b);
  EXPECT_NEAR(m.variance, 2.0 * b * b, 0.1 * 2.0 * b * b);
}

TEST_P(StrategyNoiseTest, GaussianMeasureNoiseHasCalibratedVariance) {
  // Var[N(0, sigma^2)] = sigma^2 with sigma = sens_2 / sqrt(2 rho).
  Rng rng(6);
  const std::unique_ptr<Strategy> s = SmallStrategy(GetParam());
  const double rho = 0.3;
  const double sigma = s->L2Sensitivity() / std::sqrt(2.0 * rho);
  const NoiseMoments m = MeasureNoiseMoments(
      *s, [&](const Vector& x) { return s->MeasureGaussian(x, rho, &rng); });
  EXPECT_NEAR(m.mean, 0.0, 0.05 * sigma);
  EXPECT_NEAR(m.variance, sigma * sigma, 0.1 * sigma * sigma);
}

INSTANTIATE_TEST_SUITE_P(Privacy, StrategyNoiseTest,
                         ::testing::Values(Representation::kExplicit,
                                           Representation::kKron,
                                           Representation::kUnionKron,
                                           Representation::kMarginals),
                         RepresentationName);

TEST(Privacy, NoiseScalesInverselyWithEpsilon) {
  Rng rng(7);
  KronStrategy s({IdentityBlock(8)});
  Vector x(8, 10.0);
  const Vector ax = s.Apply(x);
  auto mean_abs_noise = [&](double eps) {
    double total = 0.0;
    for (int t = 0; t < 3000; ++t) {
      Vector y = s.Measure(x, eps, &rng);
      for (size_t i = 0; i < y.size(); ++i) total += std::abs(y[i] - ax[i]);
    }
    return total;
  };
  const double at_half = mean_abs_noise(0.5);
  const double at_two = mean_abs_noise(2.0);
  // E|Lap(b)| = b, so quartering epsilon quadruples the mean deviation.
  EXPECT_NEAR(at_half / at_two, 4.0, 0.5);
}

TEST(Privacy, StrategySelectionIgnoresData) {
  // Structural restatement of Section 7.3: OptimizeStrategy's signature
  // admits no data, so selection cannot leak. This test pins the invariant
  // that measuring different databases under the same seed yields the same
  // strategy (no hidden global state).
  UnionWorkload w = MakeProductWorkload(Domain({8}), {PrefixBlock(8)});
  HdmmOptions opts;
  opts.restarts = 1;
  opts.seed = 9;
  HdmmResult r1 = OptimizeStrategy(w, opts);
  HdmmResult r2 = OptimizeStrategy(w, opts);
  EXPECT_DOUBLE_EQ(r1.squared_error, r2.squared_error);
  EXPECT_EQ(r1.chosen_operator, r2.chosen_operator);
}

}  // namespace
}  // namespace hdmm
