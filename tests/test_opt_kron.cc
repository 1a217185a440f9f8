#include "core/opt_kron.h"

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

UnionWorkload Prefix2D(int64_t n) {
  Domain d({n, n});
  return MakeProductWorkload(d, {PrefixBlock(n), PrefixBlock(n)});
}

TEST(OptKron, ErrorDecompositionTheorem5) {
  // ||(W1 x W2)(A1 x A2)^+||_F^2 = prod_i ||W_i A_i^+||_F^2.
  Rng rng(1);
  Matrix w1 = PrefixBlock(4), w2 = AllRangeBlock(3);
  Matrix a1 = Matrix::RandomUniform(5, 4, &rng, 0.1, 1.0);
  Matrix a2 = Matrix::RandomUniform(4, 3, &rng, 0.1, 1.0);
  double err1 = MatMul(w1, PseudoInverse(a1)).FrobeniusNormSquared();
  double err2 = MatMul(w2, PseudoInverse(a2)).FrobeniusNormSquared();
  Matrix wk = KronExplicit({w1, w2});
  Matrix ak = KronExplicit({a1, a2});
  double err_full = MatMul(wk, PseudoInverse(ak)).FrobeniusNormSquared();
  EXPECT_NEAR(err_full, err1 * err2, 1e-6 * err_full);
}

TEST(OptKron, UnionDecompositionTheorem6) {
  // ||W_[k] A^+||_F^2 = sum_j w_j^2 prod_i ||W_i^(j) A_i^+||_F^2.
  Rng rng(2);
  Domain d({3, 4});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {PrefixBlock(3), IdentityBlock(4)};
  p1.weight = 1.5;
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {IdentityBlock(3), PrefixBlock(4)};
  p2.weight = 0.5;
  w.AddProduct(p2);

  Matrix a1 = Matrix::RandomUniform(4, 3, &rng, 0.1, 1.0);
  Matrix a2 = Matrix::RandomUniform(5, 4, &rng, 0.1, 1.0);
  Matrix ak = KronExplicit({a1, a2});
  double err_full =
      MatMul(w.Explicit(), PseudoInverse(ak)).FrobeniusNormSquared();

  double err_decomposed = 0.0;
  for (const ProductWorkload& prod : w.products()) {
    double term = prod.weight * prod.weight;
    term *= MatMul(prod.factors[0], PseudoInverse(a1)).FrobeniusNormSquared();
    term *= MatMul(prod.factors[1], PseudoInverse(a2)).FrobeniusNormSquared();
    err_decomposed += term;
  }
  EXPECT_NEAR(err_full, err_decomposed, 1e-6 * err_full);
}

TEST(OptKron, SingleProductMatchesPerAttributeOpt0) {
  const int64_t n = 8;
  UnionWorkload w = Prefix2D(n);
  OptKronOptions opts;
  opts.p = {2, 2};
  Rng rng(3);
  OptKronResult res = OptKron(w, opts, &rng);
  ASSERT_EQ(res.thetas.size(), 2u);
  // The reported error matches the product of per-factor traces.
  double prod = 1.0;
  for (int i = 0; i < 2; ++i) {
    prod *= PIdentityObjective::TraceWithGram(res.thetas[static_cast<size_t>(i)],
                                              PrefixGram(n));
  }
  EXPECT_NEAR(res.error, prod, 1e-6 * prod);
}

TEST(OptKron, BeatsIdentityOnPrefix2D) {
  const int64_t n = 16;
  UnionWorkload w = Prefix2D(n);
  // Identity strategy error: prod tr[G_i].
  double id_err = PrefixGram(n).Trace() * PrefixGram(n).Trace();
  OptKronOptions opts;
  opts.p = {2, 2};
  Rng rng(4);
  OptKronResult res = OptKron(w, opts, &rng);
  EXPECT_LT(res.error, 0.7 * id_err);
}

TEST(OptKron, ReportedErrorMatchesStrategyError) {
  // The OPT_x objective value must equal the KronStrategy's SquaredError.
  const int64_t n = 6;
  Domain d({n, n});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {AllRangeBlock(n), TotalBlock(n)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(n), AllRangeBlock(n)};
  w.AddProduct(p2);

  OptKronOptions opts;
  opts.p = {2, 2};
  opts.max_cycles = 4;
  Rng rng(5);
  OptKronResult res = OptKron(w, opts, &rng);
  KronStrategy strat(KronStrategyFactors(res));
  EXPECT_NEAR(strat.Sensitivity(), 1.0, 1e-10);
  EXPECT_NEAR(strat.SquaredError(w), res.error, 1e-5 * res.error);
}

TEST(OptKron, CyclesImproveUnions) {
  const int64_t n = 8;
  Domain d({n, n});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {AllRangeBlock(n), TotalBlock(n)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {IdentityBlock(n), AllRangeBlock(n)};
  w.AddProduct(p2);

  Rng rng1(6), rng2(6);
  OptKronOptions one_cycle;
  one_cycle.p = {1, 1};
  one_cycle.max_cycles = 1;
  OptKronOptions many;
  many.p = {1, 1};
  many.max_cycles = 8;
  double e1 = OptKron(w, one_cycle, &rng1).error;
  double e8 = OptKron(w, many, &rng2).error;
  EXPECT_LE(e8, e1 + 1e-9);
}

TEST(OptKron, AttributeDefaultPConvention) {
  Domain d({64, 32});
  UnionWorkload w(d);
  ProductWorkload p;
  p.factors = {PrefixBlock(64), IdentityBlock(32)};
  w.AddProduct(p);
  EXPECT_EQ(AttributeDefaultP(w, 0), 4);  // 64/16.
  EXPECT_EQ(AttributeDefaultP(w, 1), 1);  // Identity is simple.
}

}  // namespace
}  // namespace hdmm
