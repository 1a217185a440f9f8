// Edge cases and failure-injection across modules: degenerate shapes,
// singular inputs, boundary parameters.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dawa.h"
#include "core/opt0.h"
#include "core/opt_marginals.h"
#include "core/strategy.h"
#include "linalg/cholesky.h"
#include "linalg/kron.h"
#include "linalg/lsmr.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"
#include "workload/predicate.h"

namespace hdmm {
namespace {

TEST(EdgeCases, SingleCellDomain) {
  Domain d({1});
  UnionWorkload w = MakeProductWorkload(d, {TotalBlock(1)});
  KronStrategy id({IdentityBlock(1)});
  EXPECT_NEAR(id.SquaredError(w), 1.0, 1e-12);
  Vector x = {5.0};
  Vector y = id.Apply(x);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
}

TEST(EdgeCases, KronWithUnitDimensions) {
  // Factors with a single row or column.
  Matrix a = Matrix::Ones(1, 3);
  Matrix b = Matrix::Identity(2);
  Matrix c = Matrix::Ones(2, 1);
  Vector x = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  Vector fast = KronMatVec({a, b, c}, x);
  Vector ref = MatVec(KronExplicit({a, b, c}), x);
  ASSERT_EQ(fast.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(fast[i], ref[i], 1e-12);
}

TEST(EdgeCases, PinvOfZeroMatrix) {
  Matrix z = Matrix::Zeros(3, 4);
  Matrix p = PseudoInverse(z);
  EXPECT_EQ(p.rows(), 4);
  EXPECT_EQ(p.cols(), 3);
  EXPECT_LT(p.MaxAbsDiff(Matrix::Zeros(4, 3)), 1e-12);
}

TEST(EdgeCases, TracePinvGramWithSingularStrategy) {
  // Strategy supporting only part of the space, workload inside the span:
  // the trace must still be finite and match the explicit computation.
  Matrix a = Matrix::FromRows({{1.0, 1.0, 0.0}});  // Measures x0 + x1 only.
  Matrix w = Matrix::FromRows({{2.0, 2.0, 0.0}});  // Inside rowspace(A).
  double tr = TracePinvGram(Gram(a), Gram(w));
  Matrix wap = MatMul(w, PseudoInverse(a));
  EXPECT_NEAR(tr, wap.FrobeniusNormSquared(), 1e-9);
}

TEST(EdgeCases, LsmrOnRankDeficientSystem) {
  // Consistent but rank-deficient: LSMR converges to the min-norm solution.
  Matrix a = Matrix::FromRows({{1.0, 1.0}, {2.0, 2.0}});
  Vector b = {3.0, 6.0};
  DenseOperator op(a);
  LsmrResult res = LsmrSolve(op, b);
  EXPECT_NEAR(res.x[0], 1.5, 1e-6);
  EXPECT_NEAR(res.x[1], 1.5, 1e-6);
}

TEST(EdgeCases, CholeskyOnOneByOne) {
  Matrix x = Matrix::FromRows({{4.0}});
  Matrix l;
  ASSERT_TRUE(CholeskyFactor(x, &l));
  EXPECT_DOUBLE_EQ(l(0, 0), 2.0);
}

TEST(EdgeCases, Opt0OnTotalWorkload) {
  // Workload = single total query: p-Identity still supports it; the
  // optimizer should find low error by weighting the total-like row.
  const int64_t n = 8;
  Matrix gram = Gram(TotalBlock(n));
  Rng rng(1);
  Opt0Options opts;
  opts.p = 1;
  opts.restarts = 3;
  Opt0Result res = Opt0(gram, opts, &rng);
  // Identity error is n = 8; a total-weighted strategy gets close to 1.
  EXPECT_LT(res.error, 8.0);
}

TEST(EdgeCases, MarginalsSingleAttribute) {
  MarginalsAlgebra alg({5});
  const Vector theta = {std::sqrt(0.5), std::sqrt(2.0)};
  const Vector a = alg.Eigenvalues(theta);
  // M^T M = 0.5 * ones(5) + 2 I = a_0 P + a_1 Q with P = ones(5) / 5 and
  // Q = I - P; check it and (P / a_0 + Q / a_1) M^T M = I explicitly.
  Matrix g = MatScale(Matrix::Ones(5, 5), 0.5);
  g.AddInPlace(Matrix::Identity(5), 2.0);
  const Matrix p = MatScale(Matrix::Ones(5, 5), 0.2);
  Matrix q = Matrix::Identity(5);
  q.AddInPlace(p, -1.0);
  Matrix spectral = MatScale(p, a[0]);
  spectral.AddInPlace(q, a[1]);
  EXPECT_LT(spectral.MaxAbsDiff(g), 1e-12);
  Matrix inverse = MatScale(p, 1.0 / a[0]);
  inverse.AddInPlace(q, 1.0 / a[1]);
  EXPECT_LT(MatMul(inverse, g).MaxAbsDiff(Matrix::Identity(5)), 1e-12);
}

TEST(EdgeCases, MarginalsStrategyZeroWeightsDie) {
  Domain d({2, 2});
  Vector theta(4, 0.0);
  MarginalsStrategy strat(d, theta);
  EXPECT_DEATH(strat.NumQueries(), "all-zero");
}

TEST(EdgeCases, PredicateOutOfRangeValuesIgnored) {
  Vector v = VectorizePredicate(Predicate::InSet({-5, 2, 99}), 4);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 1.0);
  EXPECT_DOUBLE_EQ(Sum(v), 1.0);
}

TEST(EdgeCases, DawaPartitionSingleCell) {
  Vector x = {42.0};
  std::vector<int64_t> bounds = DawaPartition(x, 1.0);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_EQ(bounds[0], 1);
}

TEST(EdgeCases, HierarchicalBranchingLargerThanDomain) {
  Matrix h = HierarchicalBlock(5, 8);
  // One leaf level plus one root level.
  EXPECT_EQ(h.rows(), 6);
  EXPECT_EQ(h.cols(), 5);
}

TEST(EdgeCases, WidthRangeFullWidth) {
  Matrix w = WidthRangeBlock(6, 6);
  EXPECT_EQ(w.rows(), 1);
  EXPECT_DOUBLE_EQ(w.Sum(), 6.0);
}

TEST(EdgeCases, UnionWorkloadWeightScaling) {
  // Doubling a product's weight quadruples its error contribution.
  Domain d({4});
  UnionWorkload w1(d), w2(d);
  ProductWorkload p;
  p.factors = {PrefixBlock(4)};
  p.weight = 1.0;
  w1.AddProduct(p);
  p.weight = 2.0;
  w2.AddProduct(p);
  KronStrategy id({IdentityBlock(4)});
  EXPECT_NEAR(id.SquaredError(w2), 4.0 * id.SquaredError(w1), 1e-10);
}

TEST(EdgeCases, StrategyMeasureZeroEpsilonDies) {
  KronStrategy id({IdentityBlock(4)});
  Rng rng(1);
  Vector x(4, 1.0);
  EXPECT_DEATH(id.Measure(x, 0.0, &rng), "epsilon");
}

}  // namespace
}  // namespace hdmm
