#include "core/hdmm.h"

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

HdmmOptions FastOptions() {
  HdmmOptions opts;
  opts.restarts = 1;
  opts.kron.lbfgs.max_iterations = 80;
  opts.union_opts.kron.lbfgs.max_iterations = 80;
  opts.marginals.lbfgs.max_iterations = 80;
  return opts;
}

TEST(Hdmm, NeverWorseThanIdentity) {
  Domain d({8, 8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8), PrefixBlock(8)});
  HdmmResult res = OptimizeStrategy(w, FastOptions());
  // Identity error: prod of tr(PrefixGram).
  double id_err = PrefixGram(8).Trace() * PrefixGram(8).Trace();
  EXPECT_LE(res.squared_error, id_err);
  EXPECT_NE(res.chosen_operator, "");
}

TEST(Hdmm, HighOrderMarginalsPlanNoWorseThanIdentity) {
  // Up-to-7-way marginals over 8 attributes of size 10: the full table is
  // hard to beat, so a marginals plan that wins must win on its exact error.
  const Domain d(std::vector<int64_t>(8, 10));
  const UnionWorkload w = UpToKWayMarginals(d, 7);
  const HdmmResult res = OptimizeStrategy(w);
  const KronStrategy identity(std::vector<Matrix>(8, IdentityBlock(10)));
  EXPECT_LE(res.strategy->SquaredError(w),
            identity.SquaredError(w) * (1.0 + 1e-12))
      << res.chosen_operator;
}

TEST(Hdmm, PicksMarginalsForMarginalWorkloads) {
  Domain d({4, 4, 4});
  UnionWorkload w = UpToKWayMarginals(d, 3);
  HdmmOptions opts = FastOptions();
  HdmmResult res = OptimizeStrategy(w, opts);
  // Expected-error consistency between the driver's bookkeeping and the
  // returned strategy object.
  EXPECT_NEAR(res.strategy->SquaredError(w), res.squared_error,
              1e-5 * std::max(1.0, res.squared_error));
}

TEST(Hdmm, UnionOperatorWinsOnDisjointUnion) {
  // W = (R x T) u (T x R): a single product strategy pairs queries badly
  // (Section 6.2); OPT_+ should do at least as well as OPT_x.
  const int64_t n = 8;
  Domain d({n, n});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {AllRangeBlock(n), TotalBlock(n)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(n), AllRangeBlock(n)};
  w.AddProduct(p2);

  HdmmOptions kron_only = FastOptions();
  kron_only.use_union = false;
  kron_only.use_marginals = false;
  HdmmOptions both = FastOptions();
  both.use_marginals = false;

  HdmmResult res_kron = OptimizeStrategy(w, kron_only);
  HdmmResult res_both = OptimizeStrategy(w, both);
  EXPECT_LE(res_both.squared_error, res_kron.squared_error + 1e-9);
}

TEST(Hdmm, StrategySelectionIsDeterministicGivenSeed) {
  Domain d({8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8)});
  HdmmOptions opts = FastOptions();
  opts.seed = 99;
  HdmmResult a = OptimizeStrategy(w, opts);
  HdmmResult b = OptimizeStrategy(w, opts);
  EXPECT_DOUBLE_EQ(a.squared_error, b.squared_error);
  EXPECT_EQ(a.chosen_operator, b.chosen_operator);
}

// Regression: the reported squared_error must describe the returned strategy
// exactly. An earlier version reported the optimizer's internal fast-path
// objective, which at extreme Theta disagreed with the built strategy by a
// factor of 5 on AllRange n=64 (it also dipped below the spectral lower
// bound, which is how the bug was caught).
TEST(Hdmm, ReportedErrorMatchesReturnedStrategy) {
  const int64_t n = 64;
  UnionWorkload w = MakeProductWorkload(Domain({n}), {AllRangeBlock(n)});
  HdmmOptions opts;
  opts.restarts = 2;
  opts.seed = 4;
  HdmmResult res = OptimizeStrategy(w, opts);
  EXPECT_NEAR(res.squared_error, res.strategy->SquaredError(w),
              1e-9 * res.squared_error);
}

TEST(Hdmm, MoreRestartsNeverHurt) {
  Domain d({8});
  UnionWorkload w = MakeProductWorkload(d, {AllRangeBlock(8)});
  HdmmOptions one = FastOptions();
  one.seed = 5;
  HdmmOptions three = FastOptions();
  three.restarts = 3;
  three.seed = 5;
  HdmmResult r1 = OptimizeStrategy(w, one);
  HdmmResult r3 = OptimizeStrategy(w, three);
  EXPECT_LE(r3.squared_error, r1.squared_error + 1e-9);
}

}  // namespace
}  // namespace hdmm
