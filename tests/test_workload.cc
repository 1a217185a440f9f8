#include "workload/workload.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/gram_cache.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

UnionWorkload TwoProductWorkload() {
  Domain d({3, 4});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {PrefixBlock(3), TotalBlock(4)};
  p1.weight = 1.0;
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(3), IdentityBlock(4)};
  p2.weight = 2.0;
  w.AddProduct(p2);
  return w;
}

TEST(Workload, Counts) {
  UnionWorkload w = TwoProductWorkload();
  EXPECT_EQ(w.NumProducts(), 2);
  EXPECT_EQ(w.TotalQueries(), 3 + 4);
  EXPECT_EQ(w.DomainSize(), 12);
}

TEST(Workload, ExplicitMatchesOperator) {
  UnionWorkload w = TwoProductWorkload();
  Matrix full = w.Explicit();
  EXPECT_EQ(full.rows(), 7);
  EXPECT_EQ(full.cols(), 12);
  auto op = w.ToOperator();
  Rng rng(1);
  Vector x(12);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  Vector via_op = op->Apply(x);
  Vector via_full = MatVec(full, x);
  ASSERT_EQ(via_op.size(), via_full.size());
  for (size_t i = 0; i < via_op.size(); ++i)
    EXPECT_NEAR(via_op[i], via_full[i], 1e-12);
}

TEST(Workload, ExplicitGramMatches) {
  UnionWorkload w = TwoProductWorkload();
  Matrix g = w.ExplicitGram();
  Matrix ref = Gram(w.Explicit());
  EXPECT_LT(g.MaxAbsDiff(ref), 1e-12);
}

TEST(Workload, SensitivityMatchesExplicit) {
  UnionWorkload w = TwoProductWorkload();
  EXPECT_NEAR(w.Sensitivity(), w.Explicit().MaxAbsColSum(), 1e-12);
}

TEST(Workload, StorageAccounting) {
  UnionWorkload w = TwoProductWorkload();
  // Implicit: (3*3 + 1*4) + (1*3 + 4*4) = 13 + 19 = 32 doubles.
  EXPECT_EQ(w.ImplicitStorageDoubles(), 32);
  EXPECT_EQ(w.ExplicitStorageDoubles(), 7 * 12);
}

TEST(Workload, WeightForRelativeErrorScalesInverselyToL1) {
  Domain d({4, 4});
  UnionWorkload w(d);
  ProductWorkload narrow;  // Point queries: L1 norm 1 each.
  narrow.factors = {IdentityBlock(4), IdentityBlock(4)};
  w.AddProduct(narrow);
  ProductWorkload wide;  // Total query: L1 norm 16.
  wide.factors = {TotalBlock(4), TotalBlock(4)};
  w.AddProduct(wide);

  UnionWorkload rw = WeightForRelativeError(w);
  // Point queries keep weight 1; the total query is down-weighted by 16.
  EXPECT_NEAR(rw.products()[0].weight, 1.0, 1e-12);
  EXPECT_NEAR(rw.products()[1].weight, 1.0 / 16.0, 1e-12);
}

TEST(Workload, WeightForRelativeErrorAveragesRowNorms) {
  Domain d({4});
  UnionWorkload w(d);
  ProductWorkload p;  // Prefix rows have L1 norms 1, 2, 3, 4: mean 2.5.
  p.factors = {PrefixBlock(4)};
  p.weight = 5.0;
  w.AddProduct(p);
  UnionWorkload rw = WeightForRelativeError(w);
  EXPECT_NEAR(rw.products()[0].weight, 5.0 / 2.5, 1e-12);
}

TEST(Workload, AbsColumnSumsMatchExplicit) {
  UnionWorkload w = TwoProductWorkload();
  Vector sums = w.AbsColumnSums();
  Vector ref = w.Explicit().AbsColSums();
  ASSERT_EQ(sums.size(), ref.size());
  for (size_t i = 0; i < sums.size(); ++i) EXPECT_NEAR(sums[i], ref[i], 1e-12);
}

// --- Factor keys -------------------------------------------------------------

// Factors hashed so far in this process (GramCache::FactorKey calls).
uint64_t FactorKeysHashed() {
  return Metrics::GetCounter("workload.factor_keys")->Value();
}

TEST(WorkloadKeys, EachKeyIsTheGramCacheKeyOfItsFactor) {
  const UnionWorkload w = TwoProductWorkload();
  for (int j = 0; j < w.NumProducts(); ++j) {
    for (int i = 0; i < w.domain().NumAttributes(); ++i) {
      EXPECT_EQ(w.FactorKey(j, i),
                GramCache::FactorKey(w.products()[static_cast<size_t>(j)]
                                         .factors[static_cast<size_t>(i)]))
          << "product " << j << " attribute " << i;
    }
  }
}

TEST(WorkloadKeys, StatsAreEachFactorsNormsAndTotalFlag) {
  // Total-like means every entry is 1, however many rows: a two-row
  // all-ones factor is Total-like, a ones row with one 2 is not.
  Domain d({4, 5});
  UnionWorkload w(d);
  Matrix two_totals = Matrix::Ones(2, 4);
  Matrix almost_total = Matrix::Ones(1, 5);
  almost_total(0, 3) = 2.0;
  const std::vector<std::vector<Matrix>> factors = {
      {TotalBlock(4), PrefixBlock(5)},
      {two_totals, IdentityBlock(5)},
      {IdentityBlock(4), almost_total}};
  const std::vector<std::vector<bool>> total_like = {
      {true, false}, {true, false}, {false, false}};
  for (const std::vector<Matrix>& f : factors) {
    ProductWorkload p;
    p.factors = f;
    w.AddProduct(std::move(p));
  }
  for (int j = 0; j < w.NumProducts(); ++j) {
    for (int i = 0; i < 2; ++i) {
      const Matrix& f =
          factors[static_cast<size_t>(j)][static_cast<size_t>(i)];
      // ||F 1||^2 is the sum of the Gram's entries: exact for 0/1 factors.
      double gram_sum = 0.0;
      const Matrix g = Gram(f);
      for (int64_t k = 0; k < g.size(); ++k) gram_sum += g.data()[k];
      const FactorStats& stats = w.Stats(j, i);
      EXPECT_EQ(stats.frobenius_sq, f.FrobeniusNormSquared())
          << "product " << j << " attribute " << i;
      EXPECT_EQ(stats.row_sum_sq, gram_sum)
          << "product " << j << " attribute " << i;
      EXPECT_EQ(stats.total_like,
                total_like[static_cast<size_t>(j)][static_cast<size_t>(i)])
          << "product " << j << " attribute " << i;
    }
  }
  // Two all-ones rows over 4 columns: ||F||_F^2 = 8, ||F 1||^2 = 2 * 16.
  EXPECT_EQ(w.Stats(1, 0).frobenius_sq, 8.0);
  EXPECT_EQ(w.Stats(1, 0).row_sum_sq, 32.0);
}

TEST(WorkloadKeys, CopiesShareKeysAndAddProductStartsFresh) {
  const UnionWorkload w = TwoProductWorkload();
  const int d = w.domain().NumAttributes();
  auto all_keys = [d](const UnionWorkload& u) {
    std::vector<uint64_t> keys;
    for (int j = 0; j < u.NumProducts(); ++j) {
      for (int i = 0; i < d; ++i) keys.push_back(u.FactorKey(j, i));
    }
    return keys;
  };
  uint64_t hashed = FactorKeysHashed();
  const std::vector<uint64_t> keys = all_keys(w);
  EXPECT_EQ(FactorKeysHashed() - hashed, 4u);  // 2 products x 2 attributes.
  hashed = FactorKeysHashed();
  EXPECT_EQ(all_keys(w), keys);
  EXPECT_EQ(FactorKeysHashed(), hashed) << "a key was hashed twice";

  // A copy reads the original's table.
  UnionWorkload copy = w;
  EXPECT_EQ(all_keys(copy), keys);
  EXPECT_EQ(FactorKeysHashed(), hashed) << "a copy rehashed its factors";

  // Growing the copy gives it a fresh table of its own.
  ProductWorkload extra;
  extra.factors = {IdentityBlock(3), PrefixBlock(4)};
  copy.AddProduct(extra);
  const std::vector<uint64_t> grown = all_keys(copy);
  EXPECT_EQ(FactorKeysHashed() - hashed, 6u);  // 3 products x 2 attributes.
  EXPECT_EQ(std::vector<uint64_t>(grown.begin(), grown.begin() + 4), keys);
  EXPECT_EQ(grown[4], GramCache::FactorKey(IdentityBlock(3)));
  EXPECT_EQ(grown[5], GramCache::FactorKey(PrefixBlock(4)));

  // The original keeps its own, already filled, table.
  hashed = FactorKeysHashed();
  EXPECT_EQ(all_keys(w), keys);
  EXPECT_EQ(FactorKeysHashed(), hashed);

  // Factor statistics live in the same table: a copy reads the original's
  // entries (the very same objects), and the grown copy's entries are its
  // own, with equal values.
  const UnionWorkload twin = w;
  for (int j = 0; j < w.NumProducts(); ++j) {
    for (int i = 0; i < d; ++i) {
      EXPECT_EQ(&twin.Stats(j, i), &w.Stats(j, i));
      EXPECT_NE(&copy.Stats(j, i), &w.Stats(j, i));
      EXPECT_EQ(copy.Stats(j, i).frobenius_sq, w.Stats(j, i).frobenius_sq);
      EXPECT_EQ(copy.Stats(j, i).row_sum_sq, w.Stats(j, i).row_sum_sq);
      EXPECT_EQ(copy.Stats(j, i).total_like, w.Stats(j, i).total_like);
    }
  }
  EXPECT_FALSE(copy.Stats(2, 0).total_like);
  EXPECT_TRUE(copy.Stats(0, 1).total_like);
}

// A four-product workload over three attributes whose products share some
// factors (the common shape of parsed unions).
UnionWorkload SharedFactorWorkload() {
  Domain d({24, 12, 6});
  UnionWorkload w(d);
  auto add = [&w](std::vector<Matrix> factors) {
    ProductWorkload p;
    p.factors = std::move(factors);
    w.AddProduct(std::move(p));
  };
  add({PrefixBlock(24), TotalBlock(12), IdentityBlock(6)});
  add({AllRangeBlock(24), IdentityBlock(12), TotalBlock(6)});
  add({PrefixBlock(24), WidthRangeBlock(12, 3), PrefixBlock(6)});
  add({TotalBlock(24), IdentityBlock(12), IdentityBlock(6)});
  return w;
}

TEST(ParallelFactorKeys, ConcurrentFirstUseHashesEachFactorOnce) {
  // Restart jobs of one plan ask for the keys and Grams of the same fresh
  // workload at once: each factor must be hashed exactly once, and every
  // thread must see the same keys and Gram values.
  const UnionWorkload w = SharedFactorWorkload();
  const int k = w.NumProducts();
  const int d = w.domain().NumAttributes();
  constexpr int kThreads = 4;
  std::vector<std::vector<uint64_t>> keys(kThreads);
  std::vector<std::vector<std::shared_ptr<const Matrix>>> grams(kThreads);
  std::atomic<int> waiting{kThreads};
  const uint64_t hashed = FactorKeysHashed();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) {
      }
      // Each thread walks the factors from a different starting point.
      for (int s = 0; s < k * d; ++s) {
        const int f = (s + t * 5) % (k * d);
        keys[static_cast<size_t>(t)].push_back(w.FactorKey(f / d, f % d));
        grams[static_cast<size_t>(t)].push_back(w.FactorGram(f / d, f % d));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(FactorKeysHashed() - hashed, static_cast<uint64_t>(k * d));

  for (size_t t = 0; t < kThreads; ++t) {
    for (int s = 0; s < k * d; ++s) {
      const int f = (s + static_cast<int>(t) * 5) % (k * d);
      const Matrix& factor = w.products()[static_cast<size_t>(f / d)]
                                 .factors[static_cast<size_t>(f % d)];
      EXPECT_EQ(keys[t][static_cast<size_t>(s)], GramCache::FactorKey(factor));
      EXPECT_EQ(grams[t][static_cast<size_t>(s)]->MaxAbsDiff(
                    *w.FactorGram(f / d, f % d)),
                0.0);
    }
  }
}

}  // namespace
}  // namespace hdmm
