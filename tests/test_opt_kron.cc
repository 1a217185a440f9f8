#include "core/opt_kron.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/strategy.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/parser.h"

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
  ASSERT_EQ(res.factors.size(), 2u);
  // The reported error matches the product of per-factor traces.
  double prod = 1.0;
  for (int i = 0; i < 2; ++i) {
    prod *= PinvGramTracer(res.factors[static_cast<size_t>(i)])
                .Trace(PrefixGram(n));
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
  KronStrategy strat(res.factors);
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

TEST(OptKron, TotalOnlyAttributeTakesTheTotalFactor) {
  // Attribute b is Total in every product: it takes 1^T without running
  // OPT_0, and attribute a's run is exactly OPT_x on attribute a alone (its
  // start is drawn first from the same stream, and b's trace is 1).
  const UnionWorkload w = ParseWorkloadOrDie(
      "domain a=16 b=8\n"
      "product a=prefix b=total\n"
      "product a=identity b=total\n");
  const UnionWorkload alone = ParseWorkloadOrDie(
      "domain a=16\n"
      "product a=prefix\n"
      "product a=identity\n");
  Counter* const evals = Metrics::GetCounter("optimizer.evals");
  Rng rng(8), rng_alone(8);
  uint64_t before = evals->Value();
  const OptKronResult res = OptKron(w, OptKronOptions(), &rng);
  const uint64_t used = evals->Value() - before;
  before = evals->Value();
  const OptKronResult res_alone = OptKron(alone, OptKronOptions(), &rng_alone);
  const uint64_t used_alone = evals->Value() - before;

  ASSERT_EQ(res.factors.size(), 2u);
  const Matrix total = TotalBlock(8);
  ASSERT_EQ(res.factors[1].rows(), total.rows());
  ASSERT_EQ(res.factors[1].cols(), total.cols());
  EXPECT_EQ(std::memcmp(res.factors[1].data(), total.data(),
                        static_cast<size_t>(total.size()) * sizeof(double)),
            0);
  const double strategy_error = KronStrategy(res.factors).SquaredError(w);
  EXPECT_NEAR(res.error, strategy_error, 1e-12 * strategy_error);
  EXPECT_GT(used_alone, 0u);
  EXPECT_EQ(used, used_alone);
  const Matrix& a = res.factors[0];
  const Matrix& a_alone = res_alone.factors[0];
  ASSERT_EQ(a.rows(), a_alone.rows());
  EXPECT_EQ(std::memcmp(a.data(), a_alone.data(),
                        static_cast<size_t>(a.size()) * sizeof(double)),
            0);

  // With every attribute Total-only nothing is optimized: the error is
  // sum_j w_j^2 prod_i r_ij (here 3^2 * 2 + 1), from no OPT_0 evaluation.
  UnionWorkload totals(Domain({5, 3}));
  ProductWorkload two_rows;
  two_rows.factors = {Matrix::Ones(2, 5), TotalBlock(3)};
  two_rows.weight = 3.0;
  totals.AddProduct(two_rows);
  totals.AddProduct({{TotalBlock(5), TotalBlock(3)}, 1.0});
  before = evals->Value();
  const OptKronResult all_total = OptKron(totals, OptKronOptions(), &rng);
  EXPECT_EQ(evals->Value() - before, 0u);
  EXPECT_EQ(all_total.error, 19.0);
  ASSERT_EQ(all_total.factors.size(), 2u);
  EXPECT_EQ(all_total.factors[0].MaxAbsDiff(TotalBlock(5)), 0.0);
  EXPECT_EQ(all_total.factors[1].MaxAbsDiff(TotalBlock(3)), 0.0);
  EXPECT_NEAR(KronStrategy(all_total.factors).SquaredError(totals), 19.0,
              1e-12 * 19.0);
}

TEST(OptKron, AttributeDefaultPConvention) {
  Domain d({64, 32});
  UnionWorkload w(d);
  ProductWorkload p;
  p.factors = {PrefixBlock(64), IdentityBlock(32)};
  w.AddProduct(p);
  EXPECT_EQ(AttributeDefaultP(w, {0}, 0), 4);  // 64/16.
  EXPECT_EQ(AttributeDefaultP(w, {0}, 1), 1);  // Identity is simple.
}

TEST(OptKron, GroupIndicesMatchCopiedSubWorkload) {
  // OPT_+ runs OPT_x over a group's product indices in the parent workload.
  // That must be the same computation, bit for bit, as OPT_x over a
  // workload holding copies of just those products, in the listed order.
  Domain d({16, 8, 4});
  UnionWorkload w(d);
  auto add = [&w](std::vector<Matrix> factors, double weight) {
    ProductWorkload p;
    p.factors = std::move(factors);
    p.weight = weight;
    w.AddProduct(std::move(p));
  };
  add({PrefixBlock(16), TotalBlock(8), IdentityBlock(4)}, 1.0);
  add({TotalBlock(16), AllRangeBlock(8), TotalBlock(4)}, 2.0);
  add({AllRangeBlock(16), IdentityBlock(8), TotalBlock(4)}, 0.5);
  add({PrefixBlock(16), TotalBlock(8), PrefixBlock(4)}, 3.0);
  const std::vector<int> group = {3, 0, 2};
  UnionWorkload sub(d);
  for (int j : group) sub.AddProduct(w.products()[static_cast<size_t>(j)]);

  Rng rng_indices(21), rng_copy(21);
  OptKronResult by_index = OptKron(w, group, OptKronOptions(), &rng_indices);
  OptKronResult by_copy = OptKron(sub, OptKronOptions(), &rng_copy);
  ASSERT_EQ(by_index.factors.size(), by_copy.factors.size());
  for (size_t i = 0; i < by_index.factors.size(); ++i) {
    const Matrix& a = by_index.factors[i];
    const Matrix& b = by_copy.factors[i];
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.size()) * sizeof(double)),
              0)
        << "attribute " << i;
  }
  EXPECT_EQ(std::memcmp(&by_index.error, &by_copy.error, sizeof(double)), 0);
  // Both runs read their streams identically.
  EXPECT_EQ(rng_indices.Uniform(0.0, 1.0), rng_copy.Uniform(0.0, 1.0));
}

}  // namespace
}  // namespace hdmm
