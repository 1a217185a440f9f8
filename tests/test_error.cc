// Cross-representation consistency of the expected-error machinery: every
// strategy type's SquaredError must agree with the explicit-matrix
// definition, and the matrix-free estimator must agree with both.
#include "core/error.h"

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

UnionWorkload Mixed2D() {
  Domain d({4, 6});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {PrefixBlock(4), IdentityBlock(6)};
  p1.weight = 2.0;
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(4), AllRangeBlock(6)};
  p2.weight = 0.5;
  w.AddProduct(p2);
  return w;
}

TEST(Error, ExplicitDefinitionMatchesPinv) {
  Rng rng(1);
  UnionWorkload w = Mixed2D();
  Matrix a = Matrix::RandomUniform(30, 24, &rng, 0.0, 1.0);
  double via_trace = ExplicitSquaredError(w.Explicit(), a);
  Matrix wap = MatMul(w.Explicit(), PseudoInverse(a));
  double sens = a.MaxAbsColSum();
  EXPECT_NEAR(via_trace, sens * sens * wap.FrobeniusNormSquared(),
              1e-6 * via_trace);
}

TEST(Error, KronAgreesWithExplicit) {
  Rng rng(2);
  UnionWorkload w = Mixed2D();
  Matrix a1 = Matrix::RandomUniform(5, 4, &rng, 0.1, 1.0);
  Matrix a2 = Matrix::RandomUniform(7, 6, &rng, 0.1, 1.0);
  KronStrategy kron({a1, a2});
  double explicit_err = ExplicitSquaredError(w.Explicit(),
                                             KronExplicit({a1, a2}));
  EXPECT_NEAR(kron.SquaredError(w), explicit_err, 1e-6 * explicit_err);
}

TEST(Error, MarginalsAgreesWithExplicit) {
  Domain d({3, 4});
  UnionWorkload w = AllMarginals(d);
  Vector theta = {0.4, 0.9, 1.3, 0.8};
  MarginalsStrategy marg(d, theta);
  // Build the explicit weighted-marginals matrix.
  std::vector<Matrix> blocks;
  for (uint32_t m = 0; m < 4; ++m)
    blocks.push_back(MarginalProduct(d, m, theta[m]).Explicit());
  double explicit_err = ExplicitSquaredError(w.Explicit(), VStack(blocks));
  EXPECT_NEAR(marg.SquaredError(w), explicit_err, 1e-6 * explicit_err);
}

TEST(Error, StackedEstimatorAgreesWithDense) {
  // Force the Hutchinson path with a tiny dense threshold and compare.
  std::vector<std::vector<Matrix>> parts = {
      {DyadicPartitionBlock(8, 0), DyadicPartitionBlock(8, 0)},
      {DyadicPartitionBlock(8, 2), DyadicPartitionBlock(8, 2)},
      {DyadicPartitionBlock(8, 3), DyadicPartitionBlock(8, 3)}};
  Domain d({8, 8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8), PrefixBlock(8)});

  ImplicitStackedStrategy dense(parts, "dense", /*dense_threshold=*/4096);
  ImplicitStackedStrategy estimated(parts, "est", /*dense_threshold=*/1,
                                    /*estimator_seed=*/3,
                                    /*estimator_samples=*/800);
  double exact = dense.SquaredError(w);
  double est = estimated.SquaredError(w);
  EXPECT_NEAR(est, exact, 0.15 * exact);
}

TEST(Error, EmpiricalSquaredError) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {1.5, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(EmpiricalSquaredError(a, b), 0.25 + 0.0 + 4.0);
}

// Parameterized: KronStrategy error equals explicit error for varying
// factor shapes (property sweep over Theorem 6).
class KronErrorProperty : public ::testing::TestWithParam<int> {};

TEST_P(KronErrorProperty, AgreesWithExplicit) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  int64_t n1 = rng.UniformInt(2, 5), n2 = rng.UniformInt(2, 5);
  Domain d({n1, n2});
  UnionWorkload w(d);
  int k = static_cast<int>(rng.UniformInt(1, 3));
  for (int j = 0; j < k; ++j) {
    ProductWorkload p;
    p.factors = {Matrix::RandomUniform(rng.UniformInt(1, 4), n1, &rng),
                 Matrix::RandomUniform(rng.UniformInt(1, 4), n2, &rng)};
    p.weight = rng.Uniform(0.5, 2.0);
    w.AddProduct(std::move(p));
  }
  Matrix a1 = Matrix::RandomUniform(n1 + 1, n1, &rng, 0.1, 1.0);
  Matrix a2 = Matrix::RandomUniform(n2 + 1, n2, &rng, 0.1, 1.0);
  KronStrategy kron({a1, a2});
  double explicit_err =
      ExplicitSquaredError(w.Explicit(), KronExplicit({a1, a2}));
  EXPECT_NEAR(kron.SquaredError(w), explicit_err,
              1e-6 * std::max(1.0, explicit_err));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KronErrorProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace hdmm
