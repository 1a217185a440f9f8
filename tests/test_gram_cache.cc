#include "core/gram_cache.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "workload/building_blocks.h"
#include "workload/workload.h"

namespace hdmm {
namespace {

// Reverses the row order of a matrix (Grams are row-order invariant; the
// recognizer must be too).
Matrix ReversedRows(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i)
    for (int64_t j = 0; j < m.cols(); ++j) out(m.rows() - 1 - i, j) = m(i, j);
  return out;
}

TEST(GramCacheRecognize, ClosedFormsMatchSyrk) {
  const int64_t n = 17;
  struct Case {
    const char* name;
    Matrix factor;
  } cases[] = {
      {"identity", IdentityBlock(n)},
      {"total", TotalBlock(n)},
      {"prefix", PrefixBlock(n)},
      {"all-range", AllRangeBlock(n)},
      {"width-5", WidthRangeBlock(n, 5)},
  };
  for (const Case& c : cases) {
    Matrix recognized;
    ASSERT_TRUE(RecognizeClosedFormGram(c.factor, &recognized)) << c.name;
    EXPECT_LT(recognized.MaxAbsDiff(Gram(c.factor)), 1e-12) << c.name;
  }
}

TEST(GramCacheRecognize, RowOrderInvariant) {
  const int64_t n = 9;
  for (const Matrix& f :
       {PrefixBlock(n), AllRangeBlock(n), WidthRangeBlock(n, 3)}) {
    Matrix shuffled = ReversedRows(f);
    Matrix recognized;
    ASSERT_TRUE(RecognizeClosedFormGram(shuffled, &recognized));
    EXPECT_LT(recognized.MaxAbsDiff(Gram(shuffled)), 1e-12);
  }
}

TEST(GramCacheRecognize, RejectsNonBuildingBlocks) {
  Matrix gram;
  // Weighted entries are not a 0/1 building block.
  Matrix weighted = PrefixBlock(6);
  weighted.ScaleInPlace(2.0);
  EXPECT_FALSE(RecognizeClosedFormGram(weighted, &gram));
  // Two disjoint runs in one row.
  Matrix split(1, 5);
  split(0, 0) = 1.0;
  split(0, 3) = 1.0;
  EXPECT_FALSE(RecognizeClosedFormGram(split, &gram));
  // A duplicated interval cannot be AllRange even at the right row count.
  Matrix dup = AllRangeBlock(3);  // 6 x 3.
  for (int64_t j = 0; j < 3; ++j) dup(1, j) = dup(0, j);
  EXPECT_FALSE(RecognizeClosedFormGram(dup, &gram));
  // Random dense matrix.
  Rng rng(3);
  Matrix dense = Matrix::RandomUniform(4, 6, &rng);
  EXPECT_FALSE(RecognizeClosedFormGram(dense, &gram));
}

TEST(GramCacheRecognize, UnrecognizedStillComputedExactly) {
  // The cache must serve exact SYRK Grams for factors it cannot recognize.
  Rng rng(9);
  Matrix f = Matrix::RandomUniform(11, 7, &rng);
  GramCache cache;
  auto g = cache.FactorGram(f);
  EXPECT_LT(g->MaxAbsDiff(Gram(f)), 1e-12);
  EXPECT_EQ(cache.stats().closed_form, 0u);
}

TEST(GramCacheKeys, ContentIdentity) {
  Matrix a = PrefixBlock(8);
  Matrix b = PrefixBlock(8);
  Matrix c = PrefixBlock(9);
  EXPECT_EQ(GramCache::FactorKey(a), GramCache::FactorKey(b));
  EXPECT_NE(GramCache::FactorKey(a), GramCache::FactorKey(c));
  Matrix d = a;
  d(3, 2) += 1e-9;  // Any bit flip must change the key.
  EXPECT_NE(GramCache::FactorKey(a), GramCache::FactorKey(d));
  // Shape participates even when the flattened content matches.
  Matrix row(1, 4, {1.0, 1.0, 1.0, 1.0});
  Matrix col(4, 1, {1.0, 1.0, 1.0, 1.0});
  EXPECT_NE(GramCache::FactorKey(row), GramCache::FactorKey(col));
}

TEST(GramCache, HitsShareOneGram) {
  GramCache cache;
  Matrix f = PrefixBlock(12);
  auto first = cache.FactorGram(f);
  auto second = cache.FactorGram(Matrix(f));  // Equal content, new object.
  EXPECT_EQ(first.get(), second.get());
  GramCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.closed_form, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_doubles(), 12 * 12);
}

TEST(GramCache, ClearKeepsOutstandingGramsValid) {
  GramCache cache;
  auto g = cache.FactorGram(AllRangeBlock(6));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_LT(g->MaxAbsDiff(AllRangeGram(6)), 1e-12);  // Still readable.
}

TEST(GramCache, FactorGramThroughWorkload) {
  // UnionWorkload::FactorGram consults the global cache and must agree
  // with the direct SYRK.
  Domain d({5, 3});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(5), IdentityBlock(3)});
  EXPECT_LT(w.FactorGram(0, 0)->MaxAbsDiff(PrefixGram(5)), 1e-12);
  EXPECT_LT(w.FactorGram(0, 1)->MaxAbsDiff(Matrix::Identity(3)), 1e-12);
  // It hands out the cached object itself.
  auto shared_a = w.FactorGram(0, 0);
  auto shared_b = w.FactorGram(0, 0);
  EXPECT_EQ(shared_a.get(), shared_b.get());
}

}  // namespace
}  // namespace hdmm
