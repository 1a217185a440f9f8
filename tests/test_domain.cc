#include "workload/domain.h"

#include <gtest/gtest.h>

namespace hdmm {
namespace {

TEST(Domain, SizesAndTotal) {
  Domain d({2, 3, 4});
  EXPECT_EQ(d.NumAttributes(), 3);
  EXPECT_EQ(d.TotalSize(), 24);
  EXPECT_EQ(d.AttributeSize(1), 3);
}

TEST(Domain, FlattenUnflattenRoundTrip) {
  Domain d({3, 4, 5});
  for (int64_t i = 0; i < d.TotalSize(); ++i) {
    EXPECT_EQ(d.Flatten(d.Unflatten(i)), i);
  }
}

TEST(Domain, FlattenIsRowMajor) {
  Domain d({2, 3});
  EXPECT_EQ(d.Flatten({0, 0}), 0);
  EXPECT_EQ(d.Flatten({0, 2}), 2);
  EXPECT_EQ(d.Flatten({1, 0}), 3);
  EXPECT_EQ(d.Flatten({1, 2}), 5);
}

TEST(Domain, NamedAttributes) {
  Domain d({"sex", "age"}, {2, 115});
  EXPECT_EQ(d.AttributeName(0), "sex");
  EXPECT_EQ(d.ToString(), "2 x 115");
}

TEST(Domain, CheckedCellCountRejectsOverflow) {
  int64_t cells = 0;
  ASSERT_TRUE(CheckedCellCount({2, 3, 4}, &cells));
  EXPECT_EQ(cells, 24);
  // 2^62 * 2 = 2^63 is one past INT64_MAX; 2^62 * 1 still fits.
  EXPECT_FALSE(CheckedCellCount({int64_t{1} << 62, 2}, &cells));
  ASSERT_TRUE(CheckedCellCount({int64_t{1} << 62, 1}, &cells));
  EXPECT_EQ(cells, int64_t{1} << 62);
  EXPECT_FALSE(CheckedCellCount({65536, 65536, 65536, 65536}, &cells));
  EXPECT_FALSE(CheckedCellCount({4, 0}, &cells));
}

TEST(DomainDeath, ConstructorRejectsOverflowingCellCount) {
  EXPECT_DEATH(Domain({65536, 65536, 65536, 32768}), "int64 cell count");
  EXPECT_DEATH(Domain({2, 0}), "int64 cell count");
}

}  // namespace
}  // namespace hdmm
