// Tests for the streaming one-pass validator and the document counter.
#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/count/counter.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/streaming.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

DfaXsd LibraryXsd() {
  SchemaBuilder builder;
  builder.AddType("Lib", "library", "Book*");
  builder.AddType("Book", "book", "Title Chapter+");
  builder.AddType("Title", "title", "%");
  builder.AddType("Chapter", "chapter", "%");
  builder.AddStart("Lib");
  return DfaXsdFromStEdtd(ReduceEdtd(builder.Build()));
}

TEST(StreamingTest, AcceptsEventByEvent) {
  DfaXsd xsd = LibraryXsd();
  int lib = xsd.sigma.Find("library"), book = xsd.sigma.Find("book"),
      title = xsd.sigma.Find("title"), chapter = xsd.sigma.Find("chapter");
  StreamingValidator v(&xsd);
  EXPECT_TRUE(v.StartElement(lib));
  EXPECT_TRUE(v.StartElement(book));
  EXPECT_EQ(v.depth(), 2);
  EXPECT_TRUE(v.StartElement(title));
  EXPECT_TRUE(v.EndElement());
  EXPECT_TRUE(v.StartElement(chapter));
  EXPECT_TRUE(v.EndElement());
  EXPECT_TRUE(v.EndElement());  // </book>
  EXPECT_FALSE(v.EndDocument());  // library still open
  EXPECT_TRUE(v.EndElement());  // </library>
  EXPECT_TRUE(v.EndDocument());
}

TEST(StreamingTest, RejectsAtTheFirstViolation) {
  DfaXsd xsd = LibraryXsd();
  int lib = xsd.sigma.Find("library"), book = xsd.sigma.Find("book"),
      chapter = xsd.sigma.Find("chapter");
  StreamingValidator v(&xsd);
  EXPECT_TRUE(v.StartElement(lib));
  EXPECT_TRUE(v.StartElement(book));
  // chapter before title violates the content model immediately.
  EXPECT_FALSE(v.StartElement(chapter));
  EXPECT_FALSE(v.ok());
  // Subsequent events keep failing but do not crash.
  EXPECT_FALSE(v.EndElement());
  EXPECT_FALSE(v.EndDocument());
}

TEST(StreamingTest, RejectsBadRootsAndSecondRoots) {
  DfaXsd xsd = LibraryXsd();
  int lib = xsd.sigma.Find("library"), book = xsd.sigma.Find("book");
  {
    StreamingValidator v(&xsd);
    EXPECT_FALSE(v.StartElement(book));  // not a start symbol
  }
  {
    StreamingValidator v(&xsd);
    EXPECT_TRUE(v.StartElement(lib));
    EXPECT_TRUE(v.EndElement());
    EXPECT_FALSE(v.StartElement(lib));  // second root
  }
  {
    StreamingValidator v(&xsd);
    EXPECT_FALSE(v.EndElement());  // nothing open
  }
}

// The EDTD route (Prop. 2.9 back-conversion, bottom-up type sets) is an
// independent check on the one-pass kernel behind DfaXsd::Accepts.
TEST(StreamingTest, AgreesWithRecursiveValidationOnEnumeration) {
  DfaXsd xsd = LibraryXsd();
  Edtd back = StEdtdFromDfaXsd(xsd);
  for (const Tree& tree : EnumerateTrees({3, 2, xsd.sigma.size()})) {
    EXPECT_EQ(xsd.Accepts(tree), back.Accepts(tree))
        << tree.ToString(xsd.sigma);
  }
}

// Property: the kernel agrees with the EDTD route on random schemas and
// random trees.
class StreamingRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingRandomTest, MatchesRecursiveValidator) {
  std::mt19937 rng(GetParam() * 7177 + 3);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = 4;
  DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
  Edtd back = StEdtdFromDfaXsd(xsd);
  // Members...
  for (int i = 0; i < 5; ++i) {
    std::optional<Tree> tree = SampleTree(xsd, &rng, 4);
    ASSERT_TRUE(tree.has_value());
    EXPECT_TRUE(xsd.Accepts(*tree));
  }
  // ...and arbitrary small trees.
  for (const Tree& tree : EnumerateTrees({3, 2, 3})) {
    EXPECT_EQ(xsd.Accepts(tree), back.Accepts(tree));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingRandomTest, ::testing::Range(0, 15));

TEST(CountTest, CountsMatchEnumerationExactly) {
  DfaXsd xsd = LibraryXsd();
  // Keep the enumeration sizes sane: wide sweeps at shallow depth, a
  // narrower sweep at depth 3.
  const std::pair<int, int> cases[] = {{1, 3}, {2, 0}, {2, 2}, {2, 3},
                                       {3, 1}, {3, 2}};
  for (auto [depth, width] : cases) {
    int64_t expected = 0;
    for (const Tree& tree :
         EnumerateTrees({depth, width, xsd.sigma.size()})) {
      if (xsd.Accepts(tree)) ++expected;
    }
    EXPECT_DOUBLE_EQ(
        CountXsdByDepth(xsd, {depth, width}, nullptr)->back().ToDouble(),
        static_cast<double>(expected))
        << "depth=" << depth << " width=" << width;
  }
}

TEST(CountTest, GrowsWithBounds) {
  DfaXsd xsd = LibraryXsd();
  double small = CountXsdByDepth(xsd, {3, 2}, nullptr)->back().ToDouble();
  double large = CountXsdByDepth(xsd, {3, 6}, nullptr)->back().ToDouble();
  EXPECT_GT(large, small);
  EXPECT_GT(small, 0.0);
}

TEST(CountTest, EmptySchemaCountsZero) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "R");
  builder.AddStart("R");
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(builder.Build()));
  EXPECT_DOUBLE_EQ(CountXsdByDepth(xsd, {4, 4}, nullptr)->back().ToDouble(),
                   0.0);
}

// Random cross-check: the DP equals brute-force enumeration.
class CountRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CountRandomTest, MatchesEnumeration) {
  std::mt19937 rng(GetParam() * 523 + 7);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
  int64_t expected = 0;
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    if (xsd.Accepts(tree)) ++expected;
  }
  EXPECT_DOUBLE_EQ(CountXsdByDepth(xsd, {3, 2}, nullptr)->back().ToDouble(),
                   static_cast<double>(expected));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountRandomTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace stap
