#include "core/svd_bound.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hdmm.h"
#include "core/opt0.h"
#include "linalg/svd.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

TEST(SvdBound, IdentityWorkloadBoundIsTight) {
  // W = I_n: every singular value is 1, so the bound is n^2 / n = n, and the
  // identity strategy achieves exactly ||I||_1^2 ||I I^+||_F^2 = n.
  for (int64_t n : {2, 5, 16}) {
    UnionWorkload w = MakeProductWorkload(Domain({n}), {IdentityBlock(n)});
    const double bound = SquaredErrorLowerBound(w);
    EXPECT_NEAR(bound, static_cast<double>(n), 1e-9);
    ExplicitStrategy identity(IdentityBlock(n));
    EXPECT_NEAR(identity.SquaredError(w), bound, 2e-9 * bound);
  }
}

TEST(SvdBound, TotalWorkloadBoundIsTight) {
  // W = Total (1 x n): sigma = sqrt(n), bound = n / n = 1, achieved by the
  // Total strategy itself.
  const int64_t n = 12;
  UnionWorkload w = MakeProductWorkload(Domain({n}), {TotalBlock(n)});
  const double bound = SquaredErrorLowerBound(w);
  EXPECT_NEAR(bound, 1.0, 1e-9);
  ExplicitStrategy total(TotalBlock(n));
  EXPECT_NEAR(total.SquaredError(w), bound, 2e-9 * bound);
}

TEST(SvdBound, SingleProductMatchesExplicitNuclearNorm) {
  // The implicit product path (factor nuclear norms multiplied) must agree
  // with the nuclear norm of the expanded matrix.
  Domain d({4, 5});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(4), AllRangeBlock(5)},
                                        /*weight=*/1.7);
  const double implicit = WorkloadNuclearNorm(w);
  const double explicit_norm = NuclearNorm(w.Explicit());
  EXPECT_NEAR(implicit, explicit_norm, 1e-8 * explicit_norm);
}

TEST(SvdBound, UnionMatchesExplicitNuclearNorm) {
  Domain d({3, 4});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {PrefixBlock(3), IdentityBlock(4)};
  p1.weight = 1.0;
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {IdentityBlock(3), PrefixBlock(4)};
  p2.weight = 2.0;
  w.AddProduct(p2);

  const double via_gram = WorkloadNuclearNorm(w);
  const double explicit_norm = NuclearNorm(w.Explicit());
  EXPECT_NEAR(via_gram, explicit_norm, 1e-7 * explicit_norm);
}

TEST(SvdBound, ScalesQuadraticallyWithWeight) {
  Domain d({6});
  UnionWorkload w1 = MakeProductWorkload(d, {PrefixBlock(6)}, 1.0);
  UnionWorkload w3 = MakeProductWorkload(d, {PrefixBlock(6)}, 3.0);
  EXPECT_NEAR(SquaredErrorLowerBound(w3), 9.0 * SquaredErrorLowerBound(w1),
              1e-9);
}

// Every strategy must sit above the bound: sweep strategies and workloads.
// sqrt(error / bound) >= 1 - 1e-9 is error >= (1 - 2e-9) * bound.
class BoundDominanceTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(BoundDominanceTest, AllStrategiesAboveBound) {
  const int64_t n = GetParam();
  UnionWorkload range = MakeProductWorkload(Domain({n}), {AllRangeBlock(n)});
  UnionWorkload prefix = MakeProductWorkload(Domain({n}), {PrefixBlock(n)});

  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(std::make_unique<ExplicitStrategy>(IdentityBlock(n)));
  strategies.push_back(std::make_unique<ExplicitStrategy>(PrefixBlock(n)));
  strategies.push_back(std::make_unique<ExplicitStrategy>(HaarBlock(n)));
  strategies.push_back(
      std::make_unique<ExplicitStrategy>(HierarchicalBlock(n, 4)));

  const double range_bound = SquaredErrorLowerBound(range);
  const double prefix_bound = SquaredErrorLowerBound(prefix);
  for (const auto& s : strategies) {
    EXPECT_GE(s->SquaredError(range), (1.0 - 2e-9) * range_bound)
        << s->Name();
    EXPECT_GE(s->SquaredError(prefix), (1.0 - 2e-9) * prefix_bound)
        << s->Name();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoundDominanceTest,
                         ::testing::Values(8, 16, 32));

TEST(SvdBound, HdmmStrategyIsAboveBoundAndReasonablyClose) {
  // The optimized strategy must respect the bound, and on AllRange the gap
  // should be modest (the bench quantifies it precisely).
  const int64_t n = 32;
  UnionWorkload w = MakeProductWorkload(Domain({n}), {AllRangeBlock(n)});
  HdmmOptions options;
  options.restarts = 2;
  options.seed = 7;
  HdmmResult result = OptimizeStrategy(w, options);
  const double error = result.strategy->SquaredError(w);
  const double bound = SquaredErrorLowerBound(w);
  EXPECT_GE(error, (1.0 - 2e-9) * bound);
  // A root-scale gap below 3 is an error below 9 times the bound.
  EXPECT_LT(error, 9.0 * bound);
}

TEST(SvdBound, MarginalsWorkloadRespectsBound) {
  Domain d({3, 4, 2});
  UnionWorkload w = AllMarginals(d);
  MarginalsStrategy uniform(d, Vector(8, 1.0));
  EXPECT_GE(uniform.SquaredError(w), (1.0 - 2e-9) * SquaredErrorLowerBound(w));
}

TEST(SvdBoundDeath, EmptyWorkload) {
  UnionWorkload w(Domain({4}));
  EXPECT_DEATH(WorkloadNuclearNorm(w), "empty workload");
}

TEST(SvdBoundDeath, UnionTooLargeForExplicitGram) {
  Domain d({64, 64});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {PrefixBlock(64), TotalBlock(64)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(64), PrefixBlock(64)};
  w.AddProduct(p2);
  // 4096^2 Gram cells > the 1024-cell cap passed here.
  EXPECT_DEATH(WorkloadNuclearNorm(w, /*max_explicit_cells=*/1024),
               "too large");
}

}  // namespace
}  // namespace hdmm
