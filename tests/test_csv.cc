#include "data/csv.h"

#include <gtest/gtest.h>

namespace hdmm {
namespace {

Domain MiniDomain() { return Domain({"sex", "age"}, {2, 5}); }

TEST(Csv, ParsesRecordsInHeaderOrder) {
  Dataset d(MiniDomain());
  std::string error;
  ASSERT_TRUE(ParseCsvDataset("sex,age\n0,3\n1,4\n0,3\n", MiniDomain(), &d,
                              &error))
      << error;
  EXPECT_EQ(d.NumRecords(), 3);
  Vector x = d.ToDataVector();
  EXPECT_DOUBLE_EQ(x[static_cast<size_t>(MiniDomain().Flatten({0, 3}))], 2.0);
  EXPECT_DOUBLE_EQ(x[static_cast<size_t>(MiniDomain().Flatten({1, 4}))], 1.0);
}

TEST(Csv, HeaderOrderMayDiffer) {
  Dataset d(MiniDomain());
  std::string error;
  ASSERT_TRUE(
      ParseCsvDataset("age,sex\n3,0\n4,1\n", MiniDomain(), &d, &error))
      << error;
  Vector x = d.ToDataVector();
  EXPECT_DOUBLE_EQ(x[static_cast<size_t>(MiniDomain().Flatten({0, 3}))], 1.0);
  EXPECT_DOUBLE_EQ(x[static_cast<size_t>(MiniDomain().Flatten({1, 4}))], 1.0);
}

TEST(Csv, SkipsBlankLinesAndTrimsWhitespace) {
  Dataset d(MiniDomain());
  std::string error;
  ASSERT_TRUE(ParseCsvDataset("sex, age\n 0 , 3 \n\n1,0\n\n", MiniDomain(),
                              &d, &error))
      << error;
  EXPECT_EQ(d.NumRecords(), 2);
}

TEST(Csv, EmptyBodyIsValid) {
  Dataset d(MiniDomain());
  std::string error;
  ASSERT_TRUE(ParseCsvDataset("sex,age\n", MiniDomain(), &d, &error));
  EXPECT_EQ(d.NumRecords(), 0);
  EXPECT_DOUBLE_EQ(Sum(d.ToDataVector()), 0.0);
}

struct BadCsv {
  const char* text;
  const char* message_fragment;
};

class CsvErrorTest : public ::testing::TestWithParam<BadCsv> {};

TEST_P(CsvErrorTest, RejectsWithMessage) {
  Dataset d(MiniDomain());
  std::string error;
  EXPECT_FALSE(ParseCsvDataset(GetParam().text, MiniDomain(), &d, &error));
  EXPECT_NE(error.find(GetParam().message_fragment), std::string::npos)
      << "actual error: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, CsvErrorTest,
    ::testing::Values(
        BadCsv{"", "missing header"},
        BadCsv{"sex,bogus\n0,0\n", "not a domain attribute"},
        BadCsv{"sex,sex\n0,0\n", "duplicate header"},
        BadCsv{"sex\n0\n", "missing domain attribute 'age'"},
        BadCsv{"sex,age\n0\n", "expected 2 fields"},
        BadCsv{"sex,age\n0,1,2\n", "expected 2 fields"},
        BadCsv{"sex,age\n0,x\n", "non-integer"},
        BadCsv{"sex,age\n0,\n", "non-integer"},
        BadCsv{"sex,age\n2,0\n", "outside dom(sex)"},
        BadCsv{"sex,age\n0,-1\n", "outside dom(age)"},
        BadCsv{"sex,age\n0,5\n", "outside dom(age)"}));

TEST(Csv, ErrorsAreLineNumbered) {
  Dataset d(MiniDomain());
  std::string error;
  ASSERT_FALSE(
      ParseCsvDataset("sex,age\n0,1\n0,9\n", MiniDomain(), &d, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(Csv, LoadMissingFile) {
  Dataset d(MiniDomain());
  std::string error;
  EXPECT_FALSE(LoadCsvDataset("/nonexistent.csv", MiniDomain(), &d, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace hdmm
