#include <gtest/gtest.h>

#include <algorithm>

#include "data/census.h"
#include "data/dataset.h"
#include "data/synthetic.h"

namespace hdmm {
namespace {

TEST(Dataset, DataVectorCounts) {
  Domain d({2, 3});
  Dataset ds(d);
  ds.AddRecord({0, 1});
  ds.AddRecord({0, 1});
  ds.AddRecord({1, 2});
  Vector x = ds.ToDataVector();
  EXPECT_EQ(x.size(), 6u);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[5], 1.0);
  EXPECT_DOUBLE_EQ(Sum(x), 3.0);
}

TEST(Synthetic, UniformTotalPreserved) {
  Domain d({50});
  Rng rng(1);
  Vector x = UniformDataVector(d, 1000, &rng);
  EXPECT_DOUBLE_EQ(Sum(x), 1000.0);
  for (double v : x) EXPECT_GE(v, 0.0);
}

TEST(Synthetic, ZipfIsSkewed) {
  Domain d({100});
  Rng rng(2);
  Vector x = ZipfDataVector(d, 10000, 1.2, &rng);
  // Heaviest cell should dominate the median cell.
  Vector sorted = x;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted.back(), 10 * std::max(1.0, sorted[50]));
}

TEST(Synthetic, ClusteredIsPiecewise) {
  Domain d({64});
  Rng rng(3);
  Vector x = ClusteredDataVector(d, 5000, 4, &rng);
  EXPECT_GT(Sum(x), 0.0);
}

TEST(Synthetic, DpbenchStandinsExist) {
  Rng rng(4);
  for (const char* name :
       {"Hepth", "Medcost", "Nettrace", "Patent", "Searchlogs"}) {
    Vector x = DpbenchStandinDataVector(name, 128, 1000, &rng);
    EXPECT_EQ(x.size(), 128u) << name;
    EXPECT_GT(Sum(x), 0.0) << name;
  }
}

TEST(Census, DomainSizesMatchPaper) {
  // Section 2: 2 x 2 x 64 x 17 x 115 = 500,480 (national);
  // x 51 = 25,524,480 (with state).
  EXPECT_EQ(CphDomain(false).TotalSize(), 500480);
  EXPECT_EQ(CphDomain(true).TotalSize(), 25524480);
}

TEST(Census, Sf1QueryCounts) {
  UnionWorkload sf1 = Sf1Workload();
  EXPECT_EQ(sf1.NumProducts(), 32);       // The paper's W*_SF1 factoring.
  EXPECT_EQ(sf1.TotalQueries(), 4151);    // Section 2.
}

TEST(Census, Sf1PlusQueryCounts) {
  UnionWorkload sf1p = Sf1PlusWorkload();
  EXPECT_EQ(sf1p.NumProducts(), 32);
  EXPECT_EQ(sf1p.TotalQueries(), 215852);  // 4151 * 52 (Example 5).
}

TEST(Census, ImplicitStorageTiny) {
  // Example 7: the 32-product factored form is a few hundred KB.
  UnionWorkload sf1p = Sf1PlusWorkload();
  int64_t implicit_bytes = sf1p.ImplicitStorageDoubles() * 8;
  int64_t explicit_bytes = sf1p.ExplicitStorageDoubles() * 8;
  EXPECT_LT(implicit_bytes, int64_t{4} << 20);       // < 4 MB.
  EXPECT_GT(explicit_bytes, int64_t{1} << 40);       // > 1 TB.
}

TEST(Census, OtherDomains) {
  EXPECT_EQ(AdultDomain().TotalSize(), 75 * 16 * 5 * 2 * 20);
  EXPECT_EQ(CpsDomain().TotalSize(), 100 * 50 * 7 * 4 * 2);
}

}  // namespace
}  // namespace hdmm
