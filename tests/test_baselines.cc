#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "baselines/datacube.h"
#include "baselines/greedy_h.h"
#include "baselines/hb.h"
#include "baselines/lrm.h"
#include "baselines/privelet.h"
#include "baselines/quadtree.h"
#include "core/error.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

TEST(IdentityBaseline, ErrorIsGramTrace) {
  Domain d({8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8)});
  auto id = MakeIdentityBaseline(d);
  EXPECT_NEAR(id->SquaredError(w), PrefixGram(8).Trace(), 1e-9);
}

TEST(LaplaceMechanism, ErrorFormula) {
  Domain d({4});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(4)});
  // Prefix sensitivity: cell 0 appears in all 4 prefixes -> ||W||_1 = 4.
  // m = 4 queries -> Err = 16 * 4 = 64.
  EXPECT_NEAR(LaplaceMechanismSquaredError(w), 64.0, 1e-12);
}

TEST(Privelet, SensitivityIsLogarithmic) {
  Domain d({64});
  auto wav = MakePriveletStrategy(d);
  EXPECT_DOUBLE_EQ(wav->Sensitivity(), 7.0);  // log2(64) + 1.
}

TEST(Privelet, BeatsLmOnPrefix) {
  Domain d({64});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(64)});
  auto wav = MakePriveletStrategy(d);
  EXPECT_LT(wav->SquaredError(w), LaplaceMechanismSquaredError(w));
}

TEST(Privelet, Kron2D) {
  Domain d({8, 8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8), PrefixBlock(8)});
  auto wav = MakePriveletStrategy(d);
  EXPECT_DOUBLE_EQ(wav->Sensitivity(), 16.0);  // (log2(8)+1)^2.
  EXPECT_GT(wav->SquaredError(w), 0.0);
}

TEST(Hb, BranchingSelection) {
  // For small domains the exact criterion should return a sane value.
  int b = SelectHbBranching(256);
  EXPECT_GE(b, 2);
  EXPECT_LE(b, 16);
}

TEST(Hb, CompetitiveOnAllRange) {
  // Table 4a: at n = 128 HB and Identity tie (both 1.38); HB pulls ahead on
  // larger domains. Assert rough parity here.
  Domain d({128});
  UnionWorkload w = MakeProductWorkload(d, {AllRangeBlock(128)});
  auto hb = MakeHbStrategy(d);
  auto id = MakeIdentityBaseline(d);
  EXPECT_LT(hb->SquaredError(w), 1.15 * id->SquaredError(w));
}

TEST(Hb, BeatsIdentityOnLargerDomain) {
  const int64_t n = 512;
  Domain d({n});
  UnionWorkload w(d);
  ProductWorkload p;
  p.factors = {Matrix()};
  // Avoid materializing AllRange(512): use the closed-form Gram through an
  // explicit strategy evaluation instead.
  Matrix g = AllRangeGram(n);
  auto hb = MakeHbStrategy(d);
  // Evaluate both errors directly from the Gram.
  auto* kron = dynamic_cast<KronStrategy*>(hb.get());
  ASSERT_NE(kron, nullptr);
  const Matrix& h = kron->factors()[0];
  double sens = h.MaxAbsColSum();
  double hb_err = sens * sens * TracePinvGram(Gram(h), g);
  double id_err = g.Trace();
  EXPECT_LT(hb_err, id_err);
}

TEST(GreedyH, ImprovesOnUniformHierarchy) {
  Matrix gram = PrefixGram(32);
  GreedyHResult res = GreedyH(gram);
  // Uniform weights = all ones is in the search space; result can only be
  // better or equal.
  GreedyHOptions no_search;
  no_search.sweeps = 0;
  GreedyHResult uniform = GreedyH(gram, no_search);
  EXPECT_LE(res.squared_error, uniform.squared_error + 1e-9);
}

TEST(GreedyH, StrategySupportsWorkload) {
  Matrix gram = AllRangeGram(16);
  auto strat = MakeGreedyHStrategy(gram);
  Domain d({16});
  UnionWorkload w = MakeProductWorkload(d, {AllRangeBlock(16)});
  double err = strat->SquaredError(w);
  EXPECT_TRUE(std::isfinite(err));
  EXPECT_GT(err, 0.0);
}

TEST(Quadtree, MatchesExplicitOnSmallGrid) {
  auto qt = MakeQuadtreeStrategy(8, 8);
  Domain d({8, 8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8), PrefixBlock(8)});
  // Dense path (N = 64 <= threshold) equals an explicitly stacked strategy.
  std::vector<Matrix> blocks;
  for (int k = 0; k <= 3; ++k) {
    blocks.push_back(KronExplicit(
        {DyadicPartitionBlock(8, k), DyadicPartitionBlock(8, k)}));
  }
  ExplicitStrategy explicit_strat(VStack(blocks));
  EXPECT_NEAR(qt->SquaredError(w), explicit_strat.SquaredError(w),
              1e-6 * explicit_strat.SquaredError(w));
  EXPECT_NEAR(qt->Sensitivity(), explicit_strat.Sensitivity(), 1e-12);
}

TEST(Quadtree, ReconstructRecoversData) {
  auto qt = MakeQuadtreeStrategy(4, 4);
  Rng rng(3);
  Vector x(16);
  for (auto& v : x) v = rng.Uniform(0.0, 5.0);
  Vector xhat = qt->Reconstruct(qt->Apply(x));
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(xhat[i], x[i], 1e-6);
}

TEST(DataCube, SupportsWorkload) {
  Domain d({4, 4, 4});
  std::vector<uint32_t> workload = {0b011, 0b101, 0b110};  // 2-way marginals.
  DataCubeResult res = DataCubeSelect(d, workload);
  EXPECT_TRUE(std::isfinite(res.squared_error));
  // Every workload marginal has a measured superset.
  for (uint32_t s : workload) {
    bool covered = false;
    for (uint32_t t : res.measured) covered = covered || ((s & t) == s);
    EXPECT_TRUE(covered);
  }
}

TEST(DataCube, MeasuringWorkloadDirectlyConsidered) {
  // For 1-way marginals over a big domain, measuring them directly is far
  // better than aggregating the full table; greedy must find that.
  Domain d({10, 10, 10});
  std::vector<uint32_t> workload = {0b001, 0b010, 0b100};
  DataCubeResult res = DataCubeSelect(d, workload);
  // Full-table-only error: 3 marginals x 10 cells x 100 agg x k^2=1 = 3000.
  // Direct: k=3 -> 9 * (10+10+10) = 270.
  EXPECT_LE(res.squared_error, 3000.0);
}

TEST(DataCube, RunAnswersAreUnbiased) {
  Domain d({3, 3});
  std::vector<uint32_t> workload = {0b01, 0b10};
  DataCubeResult sel = DataCubeSelect(d, workload);
  Rng rng(4);
  Vector x(9);
  for (auto& v : x) v = rng.Uniform(0.0, 20.0);
  Vector mean(6, 0.0);
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    Vector est = RunDataCube(d, workload, sel, x, 2.0, &rng);
    ASSERT_EQ(est.size(), 6u);
    Axpy(1.0 / trials, est, &mean);
  }
  // Truth: marginal over attr 0 then attr 1.
  Domain dd({3, 3});
  UnionWorkload w(dd);
  w.AddProduct(MarginalProduct(dd, 0b01));
  w.AddProduct(MarginalProduct(dd, 0b10));
  Vector truth = w.ToOperator()->Apply(x);
  for (size_t i = 0; i < 6; ++i) EXPECT_NEAR(mean[i], truth[i], 1.0);
}

TEST(Lrm, SpectralErrorBeatsLmOnPrefix) {
  Domain d({32});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(32)});
  LrmResult res = LowRankMechanism(PrefixBlock(32));
  EXPECT_LT(res.squared_error, LaplaceMechanismSquaredError(w));
}

TEST(Lrm, FactorizationReconstructsWorkload) {
  Matrix w = PrefixBlock(16);
  LrmResult res = LowRankMechanism(w);
  Matrix rec = MatMul(res.b, res.l);
  EXPECT_LT(rec.MaxAbsDiff(w), 1e-6);
}

TEST(Lrm, GramOnlyPathAgreesOnError) {
  Matrix w = PrefixBlock(16);
  LrmOptions opts;
  opts.als_iterations = 0;
  LrmResult a = LowRankMechanism(w, opts);
  LrmResult b = LowRankMechanismFromGram(Gram(w), opts);
  EXPECT_NEAR(a.squared_error, b.squared_error, 1e-6 * a.squared_error);
}

TEST(Lrm, SurvivesRankDeficientFactorIterates) {
  // Rank-2 workload (every row a combination of two base rows, with exact
  // duplicates) but a requested factor rank of 5 with the spectral floor
  // disabled: the seed L carries near-zero rows for the junk eigenvalues,
  // so the ALS least-squares iterates are numerically rank-deficient. The
  // rank-revealing solves must truncate those directions — finite factors,
  // finite error, and B L still reconstructing W — where a plain QR solve
  // dies and normal equations amplify roundoff.
  Matrix base = Matrix::FromRows({{1.0, 2.0, 3.0, 4.0, 5.0, 6.0},
                                  {6.0, 5.0, 4.0, 3.0, 2.0, 1.0}});
  Matrix w(8, 6);
  for (int64_t i = 0; i < 8; ++i) {
    const double c0 = static_cast<double>(i % 3) - 1.0;
    const double c1 = static_cast<double>(i % 2) + 0.5;
    for (int64_t j = 0; j < 6; ++j) {
      w(i, j) = c0 * base(0, j) + c1 * base(1, j);
    }
  }
  LrmOptions opts;
  opts.rank = 5;
  opts.spectral_tol = 1e-30;
  LrmResult res = LowRankMechanism(w, opts);
  EXPECT_TRUE(std::isfinite(res.squared_error));
  for (int64_t i = 0; i < res.b.rows(); ++i) {
    for (int64_t j = 0; j < res.b.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(res.b(i, j)));
    }
  }
  Matrix rec = MatMul(res.b, res.l);
  EXPECT_LT(rec.MaxAbsDiff(w), 1e-6);
}

}  // namespace
}  // namespace hdmm
