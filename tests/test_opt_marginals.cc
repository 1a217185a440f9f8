#include "core/opt_marginals.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/strategy.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

// Explicit M(theta) for testing: stack of theta_a-weighted marginals.
Matrix ExplicitMarginalsMatrix(const Domain& domain, const Vector& theta) {
  std::vector<Matrix> blocks;
  for (uint32_t mask = 0; mask < theta.size(); ++mask) {
    if (theta[mask] == 0.0) continue;
    ProductWorkload p = MarginalProduct(domain, mask, theta[mask]);
    blocks.push_back(p.Explicit());
  }
  return VStack(blocks);
}

// The eigenspace E_U = kron_i (Q_i if bit_i(U) else P_i), explicitly, with
// P_i = 11^T / n_i and Q_i = I - P_i.
Matrix ExplicitEigenspace(const std::vector<int64_t>& sizes, uint32_t u) {
  std::vector<Matrix> fs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const int64_t n = sizes[i];
    Matrix p = MatScale(Matrix::Ones(n, n), 1.0 / static_cast<double>(n));
    if ((u >> i) & 1u) {
      Matrix q = Matrix::Identity(n);
      q.AddInPlace(p, -1.0);
      fs.push_back(std::move(q));
    } else {
      fs.push_back(std::move(p));
    }
  }
  return KronExplicit(fs);
}

// Brute-force tr[(M^T M)^+ W^T W] in the eigenbasis: gamma_U from explicit
// traces tr(Q_i G) and tr(P_i G) against each explicit factor Gram, a_U by a
// direct loop over the supersets S of U. A factor with constant rows has
// tr(Q_i G) = 0 exactly; explicit rounding leaves ~1e-16 of tr(G), which
// would dominate at a_U ~ theta_full^2, so that is snapped to 0.
double BruteForceTrace(const UnionWorkload& w, const Vector& theta) {
  const std::vector<int64_t>& sizes = w.domain().sizes();
  const int d = static_cast<int>(sizes.size());
  const uint32_t masks = uint32_t{1} << d;
  double total = 0.0;
  for (uint32_t u = 0; u < masks; ++u) {
    double gamma = 0.0;
    for (const ProductWorkload& prod : w.products()) {
      double term = prod.weight * prod.weight;
      for (int i = 0; i < d; ++i) {
        const int64_t n = sizes[static_cast<size_t>(i)];
        const Matrix g = Gram(prod.factors[static_cast<size_t>(i)]);
        const Matrix p =
            MatScale(Matrix::Ones(n, n), 1.0 / static_cast<double>(n));
        const double tr_p = MatMul(p, g).Trace();
        double tr_q = g.Trace() - tr_p;
        if (std::fabs(tr_q) <= 1e-12 * g.Trace()) tr_q = 0.0;
        term *= ((u >> i) & 1u) ? tr_q : tr_p;
      }
      gamma += term;
    }
    if (gamma == 0.0) continue;
    double a = 0.0;
    for (uint32_t s = 0; s < masks; ++s) {
      if ((s & u) != u) continue;
      double c = 1.0;
      for (int i = 0; i < d; ++i) {
        if (!((s >> i) & 1u)) {
          c *= static_cast<double>(sizes[static_cast<size_t>(i)]);
        }
      }
      a += theta[s] * theta[s] * c;
    }
    if (a == 0.0) return std::numeric_limits<double>::infinity();
    total += gamma / a;
  }
  return total;
}

TEST(MarginalsAlgebra, CWeight) {
  MarginalsAlgebra alg({2, 3, 5});
  EXPECT_DOUBLE_EQ(alg.CWeight(0b000), 30.0);
  EXPECT_DOUBLE_EQ(alg.CWeight(0b111), 1.0);
  EXPECT_DOUBLE_EQ(alg.CWeight(0b001), 15.0);  // bit0 set -> drop n_0 = 2.
  EXPECT_DOUBLE_EQ(alg.CWeight(0b100), 6.0);   // bit2 set -> drop n_2 = 5.
}

TEST(MarginalsAlgebra, Proposition3ProductRule) {
  // C(a) C(b) = c(a|b) C(a&b), checked explicitly on a small domain.
  Domain d({2, 3});
  MarginalsAlgebra alg({2, 3});
  auto c_of = [&](uint32_t m) {
    std::vector<Matrix> fs;
    for (int i = 0; i < 2; ++i) {
      int64_t n = d.AttributeSize(i);
      fs.push_back(((m >> i) & 1u) ? Matrix::Identity(n) : Matrix::Ones(n, n));
    }
    return KronExplicit(fs);
  };
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = 0; b < 4; ++b) {
      Matrix lhs = MatMul(c_of(a), c_of(b));
      Matrix rhs = MatScale(c_of(a & b), alg.CWeight(a | b));
      EXPECT_LT(lhs.MaxAbsDiff(rhs), 1e-12) << "a=" << a << " b=" << b;
    }
  }
}

TEST(MarginalsAlgebra, EigenbasisGivesTrueInverse) {
  // M^T M = sum_U a_U E_U and (sum_U E_U / a_U) M^T M = I, explicitly.
  const std::vector<int64_t> sizes = {2, 3};
  Domain d(sizes);
  MarginalsAlgebra alg(sizes);
  Rng rng(2);
  Vector theta(4);
  for (auto& v : theta) v = rng.Uniform(0.2, 1.0);

  const Vector a = alg.Eigenvalues(theta);
  const Matrix mtm = Gram(ExplicitMarginalsMatrix(d, theta));
  Matrix spectral = Matrix::Zeros(6, 6);
  Matrix inverse = Matrix::Zeros(6, 6);
  for (uint32_t u = 0; u < 4; ++u) {
    spectral.AddInPlace(ExplicitEigenspace(sizes, u), a[u]);
    inverse.AddInPlace(ExplicitEigenspace(sizes, u), 1.0 / a[u]);
  }
  EXPECT_LT(spectral.MaxAbsDiff(mtm), 1e-12);
  EXPECT_LT(MatMul(inverse, mtm).MaxAbsDiff(Matrix::Identity(6)), 1e-12);
}

TEST(MarginalsAlgebra, TraceObjectiveMatchesExplicit) {
  Domain d({2, 3, 2});
  MarginalsAlgebra alg({2, 3, 2});
  Rng rng(3);
  Vector theta(8);
  for (auto& v : theta) v = rng.Uniform(0.2, 1.0);
  UnionWorkload w = UpToKWayMarginals(d, 2);

  double tr = alg.TraceObjective(theta, alg.EigenspaceTraces(w));

  Matrix m = ExplicitMarginalsMatrix(d, theta);
  Matrix ref_gram = Gram(w.Explicit());
  double ref = TracePinvGram(Gram(m), ref_gram);
  EXPECT_NEAR(tr, ref, 1e-10 * std::fabs(ref));
}

TEST(OptMarginals, GradientMatchesFiniteDifference) {
  // Central differences of T(theta) = tr[(M^T M)^+ W^T W] against the
  // subset-sum gradient, at random theta and with theta_full at the
  // min_full_weight floor relative to the largest weight.
  const Domain d({2, 3, 4});
  MarginalsAlgebra alg(d.sizes());
  for (const UnionWorkload& w : {UpToKWayMarginals(d, 2), AllMarginals(d)}) {
    const Vector gamma = alg.EigenspaceTraces(w);
    for (double full_ratio : {1.0, 1e-4}) {
      Rng rng(4);
      Vector theta(8);
      for (auto& v : theta) v = rng.Uniform(0.2, 1.2);
      theta[7] = full_ratio * *std::max_element(theta.begin(), theta.end());
      Vector grad;
      const double t = alg.TraceObjective(theta, gamma, &grad);
      ASSERT_TRUE(std::isfinite(t));
      ASSERT_EQ(grad.size(), 8u);
      for (uint32_t s = 0; s < 8; ++s) {
        const double h = 1e-5 * theta[s];
        Vector plus = theta, minus = theta;
        plus[s] += h;
        minus[s] -= h;
        const double fd = (alg.TraceObjective(plus, gamma) -
                           alg.TraceObjective(minus, gamma)) /
                          (2.0 * h);
        // Truncation error is O(h^2) relative; rounding in the difference
        // quotient is a few ulps of t over h.
        EXPECT_NEAR(grad[s], fd, 1e-7 * std::fabs(grad[s]) + 1e-12 * t / h)
            << "mask " << s << " full_ratio " << full_ratio;
      }
    }
  }
}

TEST(MarginalsStrategy, SquaredErrorIsExact) {
  // The error promise on domains of <= 64 cells: against the explicit
  // pseudo-inverse where M^T M is well conditioned, and against a brute-force
  // eigenspace sum down to theta_full / max theta = 1e-12.
  const std::vector<Domain> domains = {Domain({2, 3, 4}), Domain({4, 4, 4}),
                                       Domain({2, 2, 2, 2, 2, 2})};
  for (size_t k = 0; k < domains.size(); ++k) {
    const Domain& d = domains[k];
    std::vector<Matrix> prefix_blocks;
    for (int64_t n : d.sizes()) prefix_blocks.push_back(PrefixBlock(n));
    const std::vector<UnionWorkload> workloads = {
        UpToKWayMarginals(d, 2), AllMarginals(d),
        AllRangeMarginals(d, prefix_blocks)};
    const int masks = 1 << d.NumAttributes();
    Rng rng(40 + k);
    for (size_t j = 0; j < workloads.size(); ++j) {
      const UnionWorkload& w = workloads[j];
      const Matrix gram_w = Gram(w.Explicit());
      for (double full_ratio : {1.0, 1e-1, 1e-2, 1e-4, 1e-8, 1e-12}) {
        Vector theta(static_cast<size_t>(masks));
        for (auto& v : theta) v = rng.Uniform(0.2, 1.2);
        theta.back() =
            full_ratio * *std::max_element(theta.begin(), theta.end());
        const MarginalsStrategy strategy(d, theta);
        const double sens = strategy.Sensitivity();
        const double err = strategy.SquaredError(w);
        const double brute = sens * sens * BruteForceTrace(w, theta);
        EXPECT_NEAR(err, brute, 1e-10 * brute)
            << "domain " << k << " workload " << j << " ratio " << full_ratio;
        if (full_ratio >= 1e-2) {
          const double pinv =
              sens * sens *
              TracePinvGram(Gram(ExplicitMarginalsMatrix(d, theta)), gram_w);
          EXPECT_NEAR(err, pinv, 1e-9 * pinv)
              << "domain " << k << " workload " << j << " ratio "
              << full_ratio;
        }
      }
    }
  }
}

TEST(MarginalsStrategy, WithoutFullTable) {
  // Weights only on masks of <= 2 bits: M^T M is singular, yet it supports
  // the up-to-2-way marginals, whose error and reconstruction go through
  // the pseudo-inverse; the 3-way marginal is not supported.
  const Domain d({3, 4, 5});
  Rng rng(8);
  Vector theta(8, 0.0);
  for (uint32_t m = 0; m < 7; ++m) {
    if (PopCount(m) <= 2) theta[m] = rng.Uniform(0.3, 1.0);
  }
  const MarginalsStrategy strategy(d, theta);
  const Matrix m = ExplicitMarginalsMatrix(d, theta);
  const UnionWorkload w = UpToKWayMarginals(d, 2);
  const double sens = strategy.Sensitivity();
  const double ref = sens * sens * TracePinvGram(Gram(m), Gram(w.Explicit()));
  EXPECT_NEAR(strategy.SquaredError(w), ref, 1e-9 * ref);

  Vector y(static_cast<size_t>(m.rows()));
  for (auto& v : y) v = rng.Uniform(-1.0, 1.0);
  const Vector xhat = strategy.Reconstruct(y);
  const Vector dense = MatVec(PseudoInverse(m), y);
  ASSERT_EQ(xhat.size(), dense.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_NEAR(xhat[i], dense[i], 1e-10) << "cell " << i;
  }

  EXPECT_EQ(strategy.SquaredError(AllMarginals(d)),
            std::numeric_limits<double>::infinity());
}

TEST(OptMarginals, NeverWorseThanFullTable) {
  // At tiny scale (4x4x4) measuring the full table is locally optimal; the
  // built-in fallback guarantees OPT_M matches it.
  Domain d({4, 4, 4});
  UnionWorkload w = UpToKWayMarginals(d, 2);
  Rng rng(5);
  OptMarginalsResult res = OptMarginals(w, OptMarginalsOptions(), &rng);
  MarginalsAlgebra alg({4, 4, 4});
  Vector full_only(8, 0.0);
  full_only[7] = 1.0;
  double id_err = alg.TraceObjective(full_only, alg.EigenspaceTraces(w));
  EXPECT_LE(res.error, id_err + 1e-9);
}

TEST(OptMarginals, RandomStartNeverWorseThanFullTable) {
  // The random-start counterpart of NeverWorseThanFullTable: a run from
  // theta ~ U[0, 1) is compared with the same e_full fallback.
  Domain d({4, 4, 4});
  UnionWorkload w = UpToKWayMarginals(d, 2);
  OptMarginalsOptions opts;
  opts.workload_aware_init = false;
  MarginalsAlgebra alg({4, 4, 4});
  Vector full_only(8, 0.0);
  full_only[7] = 1.0;
  const double id_err =
      alg.TraceObjective(full_only, alg.EigenspaceTraces(w));
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    OptMarginalsResult res = OptMarginals(w, opts, &rng);
    EXPECT_LE(res.error, id_err + 1e-9) << "seed " << seed;
    MarginalsStrategy strat(d, res.theta);
    EXPECT_NEAR(strat.SquaredError(w), res.error,
                1e-6 * std::max(1.0, res.error))
        << "seed " << seed;
  }
}

TEST(OptMarginals, BeatsFullTableOnLargerDomains) {
  // The regime of Table 5: larger per-attribute domains make weighted
  // low-order marginals strongly better than the full contingency table.
  Domain d({10, 10, 10, 10});
  UnionWorkload w = UpToKWayMarginals(d, 2);
  Rng rng(7);
  OptMarginalsResult res = OptMarginals(w, OptMarginalsOptions(), &rng);
  MarginalsAlgebra alg({10, 10, 10, 10});
  Vector full_only(16, 0.0);
  full_only[15] = 1.0;
  double id_err = alg.TraceObjective(full_only, alg.EigenspaceTraces(w));
  EXPECT_LT(res.error, 0.5 * id_err);
}

TEST(OptMarginals, ErrorMatchesStrategySquaredError) {
  Domain d({3, 3});
  UnionWorkload w = AllMarginals(d);
  Rng rng(6);
  OptMarginalsResult res = OptMarginals(w, OptMarginalsOptions(), &rng);
  MarginalsStrategy strat(d, res.theta);
  EXPECT_NEAR(strat.SquaredError(w), res.error,
              1e-6 * std::max(1.0, res.error));
}

}  // namespace
}  // namespace hdmm
