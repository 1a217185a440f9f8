#include "core/diagnostics.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hdmm.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

TEST(Diagnostics, ExplicitSupportBasics) {
  // Identity supports everything; Total supports only multiples of Total.
  Matrix prefix = PrefixBlock(6);
  EXPECT_TRUE(SupportsWorkloadExplicit(prefix, IdentityBlock(6)));
  EXPECT_TRUE(SupportsWorkloadExplicit(TotalBlock(6), TotalBlock(6)));
  EXPECT_FALSE(SupportsWorkloadExplicit(prefix, TotalBlock(6)));
  // Prefix is square full rank, so it supports identity (and everything).
  EXPECT_TRUE(SupportsWorkloadExplicit(IdentityBlock(6), prefix));
  // Tall workloads are projected a block of rows at a time: AllRange(40)
  // has 820 rows, and a lone unsupported row in the last, partial block
  // must still be seen. A scaled Total (a wide strategy factor) supports
  // every Total row.
  EXPECT_TRUE(SupportsWorkloadExplicit(AllRangeBlock(40), IdentityBlock(40)));
  Matrix scaled_total = TotalBlock(40);
  scaled_total.ScaleInPlace(0.3);
  Matrix totals_then_point = Matrix::Ones(820, 40);
  EXPECT_TRUE(SupportsWorkloadExplicit(totals_then_point, scaled_total));
  for (int64_t j = 1; j < 40; ++j) totals_then_point(819, j) = 0.0;
  EXPECT_FALSE(SupportsWorkloadExplicit(totals_then_point, scaled_total));
}

TEST(Diagnostics, RankDeficientStrategyRejectsRicherWorkload) {
  // A two-row strategy spans a 2D rowspace; a 3-query workload outside it
  // must be rejected.
  Matrix a = Matrix::FromRows({{1.0, 1.0, 0.0, 0.0}, {0.0, 0.0, 1.0, 1.0}});
  Matrix w_ok = Matrix::FromRows({{2.0, 2.0, 3.0, 3.0}});
  Matrix w_bad = Matrix::FromRows({{1.0, 0.0, 0.0, 0.0}});
  EXPECT_TRUE(SupportsWorkloadExplicit(w_ok, a));
  EXPECT_FALSE(SupportsWorkloadExplicit(w_bad, a));
}

TEST(Diagnostics, KronSupportPerFactorReduction) {
  UnionWorkload w = MakeProductWorkload(Domain({4, 3}),
                                        {PrefixBlock(4), TotalBlock(3)});
  // Identity x Total supports Prefix x Total.
  KronStrategy good({IdentityBlock(4), TotalBlock(3)});
  EXPECT_TRUE(SupportsWorkload(good, w));
  // Total x Total does not support Prefix on the first attribute.
  KronStrategy bad({TotalBlock(4), TotalBlock(3)});
  EXPECT_FALSE(SupportsWorkload(bad, w));
}

TEST(Diagnostics, MarginalsSupportNeedsFullTableWeight) {
  Domain d({3, 3});
  UnionWorkload w = AllMarginals(d);
  MarginalsStrategy with_full(d, {0.5, 0.5, 0.5, 0.5});
  EXPECT_TRUE(SupportsWorkload(with_full, w));
  MarginalsStrategy without_full(d, {1.0, 1.0, 1.0, 1e-12});
  EXPECT_FALSE(SupportsWorkload(without_full, w));
}

TEST(Diagnostics, UnionKronPerGroupCheck) {
  Domain d({4, 4});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {AllRangeBlock(4), TotalBlock(4)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(4), AllRangeBlock(4)};
  w.AddProduct(p2);

  UnionKronStrategy good(
      {{MatScale(IdentityBlock(4), 0.5), MatScale(TotalBlock(4), 1.0)},
       {MatScale(TotalBlock(4), 1.0), MatScale(IdentityBlock(4), 0.5)}},
      {{0}, {1}}, "good");
  EXPECT_TRUE(SupportsWorkload(good, w));

  // Swap the group assignments: each part now faces the workload its
  // factors cannot span.
  UnionKronStrategy bad(
      {{MatScale(IdentityBlock(4), 0.5), MatScale(TotalBlock(4), 1.0)},
       {MatScale(TotalBlock(4), 1.0), MatScale(IdentityBlock(4), 0.5)}},
      {{1}, {0}}, "bad");
  EXPECT_FALSE(SupportsWorkload(bad, w));
}

TEST(Diagnostics, OptimizerOutputAlwaysSupports) {
  // Structural guarantee of the p-Identity parameterization (Section 5.2):
  // every OPT_HDMM strategy supports its workload.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    UnionWorkload w = MakeProductWorkload(Domain({8, 4}),
                                          {AllRangeBlock(8), PrefixBlock(4)});
    HdmmOptions options;
    options.restarts = 1;
    options.seed = seed;
    HdmmResult sel = OptimizeStrategy(w, options);
    EXPECT_TRUE(SupportsWorkload(*sel.strategy, w)) << "seed " << seed;
  }
}

TEST(Diagnostics, ReportExplicit) {
  ExplicitStrategy s(PrefixBlock(8), "prefix");
  StrategyReport report = DescribeStrategy(s);
  EXPECT_EQ(report.name, "prefix");
  EXPECT_EQ(report.num_queries, 8);
  EXPECT_EQ(report.rank, 8);
  EXPECT_TRUE(report.full_column_rank);
  EXPECT_DOUBLE_EQ(report.l1_sensitivity, 8.0);
  EXPECT_NEAR(report.l2_sensitivity, std::sqrt(8.0), 1e-12);
  EXPECT_GT(report.condition_number, 1.0);
}

TEST(Diagnostics, ReportKronMultiplies) {
  KronStrategy s({PrefixBlock(4), IdentityBlock(3)});
  StrategyReport report = DescribeStrategy(s);
  EXPECT_EQ(report.rank, 12);
  EXPECT_TRUE(report.full_column_rank);
  // Condition of a Kronecker product is the product of conditions; identity
  // contributes 1.
  StrategyReport prefix_only =
      DescribeStrategy(ExplicitStrategy(PrefixBlock(4)));
  EXPECT_NEAR(report.condition_number, prefix_only.condition_number, 1e-9);
}

TEST(Diagnostics, ReportMarginalsViaGenericPath) {
  Domain d({3, 2});
  MarginalsStrategy s(d, {0.2, 0.4, 0.6, 0.8}, "marg");
  StrategyReport report = DescribeStrategy(s);
  EXPECT_EQ(report.domain_size, 6);
  EXPECT_TRUE(report.full_column_rank);  // theta_full > 0.
  EXPECT_NEAR(report.l1_sensitivity, 2.0, 1e-12);
  EXPECT_GT(report.l2_sensitivity, 0.0);
  EXPECT_LE(report.l2_sensitivity, report.l1_sensitivity + 1e-12);
}

TEST(Diagnostics, ReportRankDeficiency) {
  ExplicitStrategy s(TotalBlock(5), "total");
  StrategyReport report = DescribeStrategy(s);
  EXPECT_EQ(report.rank, 1);
  EXPECT_FALSE(report.full_column_rank);
  const std::string text = ReportToString(report);
  EXPECT_NE(text.find("rank 1/5"), std::string::npos) << text;
}

TEST(Diagnostics, SessionIdentityIsCertifiedOptimal) {
  // W = I: the spectral bound ||W||_*^2 / N equals the identity strategy's
  // error exactly, so the session is certified 100% of optimal.
  UnionWorkload w = MakeProductWorkload(Domain({8}), {IdentityBlock(8)});
  KronStrategy s({IdentityBlock(8)});
  SessionDiagnostics diag = DiagnoseSession(s, w, /*epsilon=*/1.0);
  ASSERT_TRUE(diag.computable) << diag.note;
  EXPECT_NEAR(diag.pct_of_optimal, 100.0, 1e-6);
  EXPECT_NEAR(diag.achieved_total_sq, diag.lower_bound_total_sq, 1e-6);
  EXPECT_DOUBLE_EQ(diag.epsilon, 1.0);
}

TEST(Diagnostics, SessionSuboptimalStrategyScoresBelowOptimal) {
  // Identity is a legal but poor strategy for prefix queries; the bound
  // must still hold (pct <= 100) and stay strictly positive.
  UnionWorkload w = MakeProductWorkload(Domain({16}), {PrefixBlock(16)});
  KronStrategy s({IdentityBlock(16)});
  SessionDiagnostics diag = DiagnoseSession(s, w, /*epsilon=*/0.5);
  ASSERT_TRUE(diag.computable) << diag.note;
  EXPECT_GT(diag.pct_of_optimal, 0.0);
  EXPECT_LT(diag.pct_of_optimal, 100.0);
  EXPECT_GE(diag.achieved_total_sq, diag.lower_bound_total_sq);
}

TEST(Diagnostics, SessionPctIsEpsilonIndependent) {
  UnionWorkload w = MakeProductWorkload(Domain({16}), {PrefixBlock(16)});
  KronStrategy s({IdentityBlock(16)});
  SessionDiagnostics tight = DiagnoseSession(s, w, 0.1);
  SessionDiagnostics loose = DiagnoseSession(s, w, 2.0);
  ASSERT_TRUE(tight.computable && loose.computable);
  EXPECT_NEAR(tight.pct_of_optimal, loose.pct_of_optimal, 1e-9);
  // The error figures themselves scale by (2/eps^2).
  EXPECT_NEAR(tight.lower_bound_total_sq / loose.lower_bound_total_sq,
              (2.0 / 0.01) / (2.0 / 4.0), 1e-9);
}

TEST(Diagnostics, SessionUnionBeyondCeilingRefusesGracefully) {
  Domain d({4, 3});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {PrefixBlock(4), TotalBlock(3)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(4), PrefixBlock(3)};
  w.AddProduct(p2);
  KronStrategy s({IdentityBlock(4), IdentityBlock(3)});

  // Domain 12 > ceiling 8: the union path needs the explicit Gram spectrum,
  // so the diagnostics must refuse with a note rather than die.
  SessionDiagnostics gated =
      DiagnoseSession(s, w, /*epsilon=*/1.0, /*max_explicit_cells=*/8);
  EXPECT_FALSE(gated.computable);
  EXPECT_FALSE(gated.note.empty());
  EXPECT_DOUBLE_EQ(gated.pct_of_optimal, 0.0);

  // At the default ceiling the same union is computable.
  SessionDiagnostics open = DiagnoseSession(s, w, /*epsilon=*/1.0);
  ASSERT_TRUE(open.computable) << open.note;
  EXPECT_GT(open.pct_of_optimal, 0.0);
  EXPECT_LE(open.pct_of_optimal, 100.0 + 1e-9);
}

TEST(Diagnostics, SessionSingleProductIsImplicitAtAnySize) {
  // Single products use factor multiplicativity: no explicit expansion, so
  // a tiny ceiling must not gate them.
  UnionWorkload w = MakeProductWorkload(Domain({8, 4}),
                                        {PrefixBlock(8), PrefixBlock(4)});
  KronStrategy s({IdentityBlock(8), IdentityBlock(4)});
  SessionDiagnostics diag =
      DiagnoseSession(s, w, /*epsilon=*/1.0, /*max_explicit_cells=*/2);
  ASSERT_TRUE(diag.computable) << diag.note;
  EXPECT_GT(diag.pct_of_optimal, 0.0);
  EXPECT_LE(diag.pct_of_optimal, 100.0 + 1e-9);
}

TEST(DiagnosticsDeath, GenericPathSizeGuard) {
  Domain d({64, 64, 64});
  MarginalsStrategy s(d, Vector(8, 1.0));
  EXPECT_DEATH(DescribeStrategy(s, /*max_explicit_cells=*/1024), "too large");
}

}  // namespace
}  // namespace hdmm
