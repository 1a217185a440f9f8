#include "workload/parser.h"

#include <random>

#include <gtest/gtest.h>

#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

TEST(Parser, MinimalSpec) {
  UnionWorkload w = ParseWorkloadOrDie(
      "domain age=10\n"
      "product age=prefix\n");
  EXPECT_EQ(w.domain().NumAttributes(), 1);
  EXPECT_EQ(w.domain().AttributeSize(0), 10);
  EXPECT_EQ(w.domain().AttributeName(0), "age");
  ASSERT_EQ(w.NumProducts(), 1);
  EXPECT_EQ(w.products()[0].factors[0].MaxAbsDiff(PrefixBlock(10)), 0.0);
}

TEST(Parser, UnmentionedAttributesDefaultToTotal) {
  UnionWorkload w = ParseWorkloadOrDie(
      "domain sex=2 age=5 race=3\n"
      "product age=identity\n");
  ASSERT_EQ(w.NumProducts(), 1);
  const ProductWorkload& p = w.products()[0];
  EXPECT_EQ(p.factors[0].MaxAbsDiff(TotalBlock(2)), 0.0);
  EXPECT_EQ(p.factors[1].MaxAbsDiff(IdentityBlock(5)), 0.0);
  EXPECT_EQ(p.factors[2].MaxAbsDiff(TotalBlock(3)), 0.0);
}

TEST(Parser, AllBlockKinds) {
  UnionWorkload w = ParseWorkloadOrDie(
      "domain a=6\n"
      "product a=identity\n"
      "product a=total\n"
      "product a=identitytotal\n"
      "product a=prefix\n"
      "product a=allrange\n"
      "product a=width(3)\n"
      "product a=point(2)\n"
      "product a=range(1,4)\n"
      "product a=matrix(2x6:1,1,0,0,0,0,0,0,0,0,1,1)\n");
  ASSERT_EQ(w.NumProducts(), 9);
  EXPECT_EQ(w.products()[0].factors[0].rows(), 6);
  EXPECT_EQ(w.products()[1].factors[0].rows(), 1);
  EXPECT_EQ(w.products()[2].factors[0].rows(), 7);
  EXPECT_EQ(w.products()[3].factors[0].MaxAbsDiff(PrefixBlock(6)), 0.0);
  EXPECT_EQ(w.products()[4].factors[0].rows(), 21);  // 6*7/2 ranges.
  EXPECT_EQ(w.products()[5].factors[0].MaxAbsDiff(WidthRangeBlock(6, 3)), 0.0);
  // point(2).
  EXPECT_EQ(w.products()[6].factors[0](0, 2), 1.0);
  EXPECT_EQ(w.products()[6].factors[0].Sum(), 1.0);
  // range(1,4).
  EXPECT_EQ(w.products()[7].factors[0].Sum(), 4.0);
  // matrix literal.
  EXPECT_EQ(w.products()[8].factors[0](0, 0), 1.0);
  EXPECT_EQ(w.products()[8].factors[0](1, 5), 1.0);
}

TEST(Parser, WeightsAndComments) {
  UnionWorkload w = ParseWorkloadOrDie(
      "# header comment\n"
      "domain a=4   # trailing comment\n"
      "\n"
      "product weight=2.5 a=identity\n"
      "product a=total   # unweighted\n");
  ASSERT_EQ(w.NumProducts(), 2);
  EXPECT_DOUBLE_EQ(w.products()[0].weight, 2.5);
  EXPECT_DOUBLE_EQ(w.products()[1].weight, 1.0);
}

TEST(Parser, MarginalsDirectives) {
  Domain d({3, 4, 2});
  UnionWorkload k2 = ParseWorkloadOrDie(
      "domain a=3 b=4 c=2\nmarginals k=2\n");
  EXPECT_EQ(k2.NumProducts(), KWayMarginals(d, 2).NumProducts());
  UnionWorkload upto = ParseWorkloadOrDie(
      "domain a=3 b=4 c=2\nmarginals upto=2\n");
  EXPECT_EQ(upto.NumProducts(), UpToKWayMarginals(d, 2).NumProducts());
  UnionWorkload all = ParseWorkloadOrDie(
      "domain a=3 b=4 c=2\nmarginals all\n");
  EXPECT_EQ(all.NumProducts(), 8);
  EXPECT_EQ(all.TotalQueries(), AllMarginals(d).TotalQueries());
}

TEST(Parser, MixedProductsAndMarginals) {
  UnionWorkload w = ParseWorkloadOrDie(
      "domain a=3 b=4\n"
      "product a=prefix b=identity\n"
      "marginals k=1\n");
  EXPECT_EQ(w.NumProducts(), 3);  // 1 product + 2 one-way marginals.
}

// --- Error cases: every malformed input must be rejected with a
// line-anchored message, never accepted or crashed on. -----------------------

struct BadSpec {
  const char* spec;
  const char* message_fragment;
};

class ParserErrorTest : public ::testing::TestWithParam<BadSpec> {};

TEST_P(ParserErrorTest, RejectsWithMessage) {
  UnionWorkload w;
  std::string error;
  EXPECT_FALSE(ParseWorkload(GetParam().spec, &w, &error));
  EXPECT_NE(error.find(GetParam().message_fragment), std::string::npos)
      << "actual error: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    BadSpecs, ParserErrorTest,
    ::testing::Values(
        BadSpec{"", "missing domain"},
        BadSpec{"product a=identity\n", "expected a domain"},
        BadSpec{"domain a=4\n", "no products"},
        BadSpec{"domain a=4\ndomain b=2\nproduct a=total\n", "duplicate domain"},
        BadSpec{"domain\nproduct a=total\n", "at least one attribute"},
        BadSpec{"domain a=0\nproduct a=total\n", "bad attribute"},
        BadSpec{"domain a=x\nproduct a=total\n", "bad attribute"},
        BadSpec{"domain a=4 a=5\nproduct a=total\n", "duplicate attribute"},
        BadSpec{"domain a=4\nproduct b=identity\n", "unknown attribute"},
        BadSpec{"domain a=4\nproduct a=identity a=total\n", "twice"},
        BadSpec{"domain a=4\nproduct a=bogus\n", "unknown block"},
        BadSpec{"domain a=4\nproduct a=point(7)\n", "point(v)"},
        BadSpec{"domain a=4\nproduct a=point(-1)\n", "point(v)"},
        BadSpec{"domain a=4\nproduct a=range(3,1)\n", "range(lo,hi)"},
        BadSpec{"domain a=4\nproduct a=range(0,9)\n", "range(lo,hi)"},
        BadSpec{"domain a=4\nproduct a=width(9)\n", "width(w)"},
        BadSpec{"domain a=4\nproduct a=width()\n", "expects 1"},
        BadSpec{"domain a=4\nproduct a=identity(3)\n", "expects 0"},
        BadSpec{"domain a=4\nproduct weight=-1 a=total\n", "bad weight"},
        BadSpec{"domain a=4\nproduct weight=abc a=total\n", "bad weight"},
        BadSpec{"domain a=4\nproduct a=matrix(2x4:1,2)\n",
                "does not match dimensions"},
        BadSpec{"domain a=4\nproduct a=matrix(2x3:1,2,3,4,5,6)\n",
                "column count"},
        BadSpec{"domain a=4\nfrobnicate a=total\n", "unknown directive"},
        BadSpec{"domain a=4\nmarginals k=7\n", "bad marginals"},
        BadSpec{"domain a=4\nmarginals\n", "exactly one"},
        BadSpec{"domain a=4\nmarginals j=1\n", "bad marginals key"},
        // Non-finite and out-of-range numbers.
        BadSpec{"domain a=4 b=4\nproduct a=prefix b=identity weight=nan\n",
                "bad weight"},
        BadSpec{"domain a=4 b=4\nproduct a=prefix b=identity weight=inf\n",
                "bad weight"},
        BadSpec{"domain a=4\nproduct weight=1e400 a=total\n", "bad weight"},
        BadSpec{"domain a=4\nproduct a=matrix(1x4:1,inf,0,0)\n",
                "bad matrix entry"},
        BadSpec{"domain a=99999999999999999999\nproduct a=total\n",
                "bad attribute"},
        // Products of sizes beyond int64.
        BadSpec{"domain a=65536 b=65536 c=65536 d=65536\nproduct a=total\n",
                "overflows int64"},
        BadSpec{"domain a=65536 b=65536 c=65536 d=32768\nproduct a=total\n",
                "overflows int64"},
        BadSpec{"domain a=2\nproduct a=matrix(4611686018427387905x2:1,2)\n",
                "does not match dimensions"}));

TEST(Parser, ErrorsAreLineAnchored) {
  UnionWorkload w;
  std::string error;
  ASSERT_FALSE(ParseWorkload("domain a=4\n\n# c\nproduct a=bogus\n", &w,
                             &error));
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
}

// --- Round trips -------------------------------------------------------------

TEST(Parser, SerializeParseRoundTripNamedBlocks) {
  const std::string spec =
      "domain sex=2 age=10\n"
      "product weight=2 sex=identity age=prefix\n"
      "product age=range(2,5)\n"
      "product sex=point(1) age=width(4)\n"
      "product age=allrange\n"
      "product sex=identitytotal\n";
  UnionWorkload w = ParseWorkloadOrDie(spec);
  UnionWorkload back = ParseWorkloadOrDie(SerializeWorkload(w));
  ASSERT_EQ(back.NumProducts(), w.NumProducts());
  for (int j = 0; j < w.NumProducts(); ++j) {
    EXPECT_DOUBLE_EQ(back.products()[j].weight, w.products()[j].weight);
    for (size_t i = 0; i < w.products()[j].factors.size(); ++i) {
      EXPECT_EQ(back.products()[j].factors[i].MaxAbsDiff(
                    w.products()[j].factors[i]),
                0.0)
          << "product " << j << " factor " << i;
    }
  }
}

TEST(Parser, SerializeUsesNamedBlocks) {
  UnionWorkload w = ParseWorkloadOrDie(
      "domain a=8\nproduct a=prefix\nproduct a=range(1,3)\n");
  const std::string spec = SerializeWorkload(w);
  EXPECT_NE(spec.find("a=prefix"), std::string::npos) << spec;
  EXPECT_NE(spec.find("a=range(1,3)"), std::string::npos) << spec;
  EXPECT_EQ(spec.find("matrix("), std::string::npos) << spec;
}

TEST(Parser, SerializeFallsBackToMatrixLiteral) {
  Domain d({3});
  UnionWorkload w(d);
  ProductWorkload p;
  p.factors = {Matrix::FromRows({{0.5, 1.0, 0.0}})};
  w.AddProduct(p);
  const std::string spec = SerializeWorkload(w);
  EXPECT_NE(spec.find("matrix(1x3:0.5,1,0)"), std::string::npos) << spec;
  UnionWorkload back = ParseWorkloadOrDie(spec);
  EXPECT_EQ(back.products()[0].factors[0].MaxAbsDiff(w.products()[0].factors[0]),
            0.0);
}

TEST(Parser, SerializeRoundTripsHugeMatrixEntries) {
  // Entries past int64's range are printed with %.17g, never through an
  // integer cast, so they come back bit for bit.
  UnionWorkload w = ParseWorkloadOrDie(
      "domain a=2\nproduct a=matrix(2x2:1e300,1,-1e300,9223372036854775808)\n");
  const std::string spec = SerializeWorkload(w);
  UnionWorkload back = ParseWorkloadOrDie(spec);
  const Matrix& original = w.products()[0].factors[0];
  const Matrix& restored = back.products()[0].factors[0];
  ASSERT_EQ(restored.size(), original.size()) << spec;
  for (int64_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.data()[i], original.data()[i]) << spec;
  }
}

TEST(Parser, UnnamedDomainSerializesWithGeneratedNames) {
  UnionWorkload w = MakeProductWorkload(Domain({4, 2}),
                                        {PrefixBlock(4), IdentityBlock(2)});
  const std::string spec = SerializeWorkload(w);
  EXPECT_NE(spec.find("a1=4"), std::string::npos) << spec;
  EXPECT_NE(spec.find("a2=2"), std::string::npos) << spec;
  UnionWorkload back = ParseWorkloadOrDie(spec);
  EXPECT_EQ(back.DomainSize(), 8);
}

TEST(Parser, LoadWorkloadFileMissing) {
  UnionWorkload w;
  std::string error;
  EXPECT_FALSE(LoadWorkloadFile("/nonexistent/path.workload", &w, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(ParserDeath, ParseOrDieAborts) {
  EXPECT_DEATH(ParseWorkloadOrDie("domain a=4\nproduct a=bogus\n"),
               "unknown block");
}

// Robustness sweep: random byte soup must never crash the parser — it either
// parses (vanishingly unlikely) or returns false with a message.
TEST(Parser, SurvivesRandomGarbage) {
  std::mt19937_64 gen(99);
  const std::string alphabet =
      "domain product marginals weight identity total prefix point range "
      "width matrix()=,0123456789abcxyz \n\t#";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const size_t len = gen() % 200;
    for (size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[gen() % alphabet.size()]);
    }
    UnionWorkload w;
    std::string error;
    if (!ParseWorkload(text, &w, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

// Structured-but-wrong sweep: mutate a valid spec one character at a time;
// every mutation must be either accepted or rejected cleanly.
TEST(Parser, SurvivesSingleCharacterMutations) {
  const std::string valid =
      "domain a=4 b=3\nproduct weight=2 a=prefix b=point(1)\nmarginals k=1\n";
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    for (char c : {'x', '0', '(', '=', ' '}) {
      std::string mutated = valid;
      mutated[pos] = c;
      UnionWorkload w;
      std::string error;
      (void)ParseWorkload(mutated, &w, &error);  // Must not crash or abort.
    }
  }
}

}  // namespace
}  // namespace hdmm
