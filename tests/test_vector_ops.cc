#include "linalg/vector_ops.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hdmm {
namespace {

TEST(VectorOps, DotAndNorms) {
  Vector a = {1.0, 2.0, 3.0};
  Vector b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(Norm2Squared(a), 14.0);
  EXPECT_DOUBLE_EQ(Norm2(a), std::sqrt(14.0));
  EXPECT_DOUBLE_EQ(Sum(a), 6.0);
}

TEST(VectorOps, AxpyScale) {
  Vector x = {1.0, 2.0};
  Vector y = {10.0, 20.0};
  Axpy(2.0, x, &y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  Scale(0.5, &y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 12.0);
}

TEST(VectorOps, AddSub) {
  Vector a = {1.0, 2.0};
  Vector b = {3.0, 5.0};
  Vector s = Add(a, b);
  Vector d = Sub(b, a);
  EXPECT_DOUBLE_EQ(s[0], 4.0);
  EXPECT_DOUBLE_EQ(s[1], 7.0);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
}

}  // namespace
}  // namespace hdmm
