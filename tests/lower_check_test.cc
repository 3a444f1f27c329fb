// Tests for Section 4.4 (bounded instances): maximal-lower-approximation
// checking via exact finite closures, and single-type definability.
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/lower_check.h"
#include "stap/approx/nv.h"
#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/single_type.h"

namespace stap {
namespace {

TEST(DefinabilityTest, KnownLanguages) {
  // Unary-tree languages are always single-type definable.
  EXPECT_TRUE(*IsSingleTypeDefinable(Theorem32Family(2)));
  // The sibling-mix language is not.
  SchemaBuilder builder;
  builder.AddType("R1", "r", "X1 Y1");
  builder.AddType("R2", "r", "X2 Y2");
  builder.AddType("X1", "x", "A1");
  builder.AddType("Y1", "y", "A2");
  builder.AddType("X2", "x", "B1");
  builder.AddType("Y2", "y", "B2");
  builder.AddType("A1", "a", "%");
  builder.AddType("A2", "a", "%");
  builder.AddType("B1", "b", "%");
  builder.AddType("B2", "b", "%");
  builder.AddStart("R1");
  builder.AddStart("R2");
  EXPECT_FALSE(*IsSingleTypeDefinable(builder.Build()));
  // Unions of DTDs over disjoint roots are definable.
  auto [d1, d2] = Theorem43Schemas();
  EXPECT_FALSE(*IsSingleTypeDefinable(EdtdUnion(d1, d2)));
}

// Regression: a single-type schema is definable by itself, and the check
// must short-circuit instead of running the EXPTIME exact inclusion —
// with counted content models like Item{1,500} the exact search took
// hours, which used to hang `stap check` on imported .xsd files.
TEST(DefinabilityTest, SingleTypeShortCircuitsOnCountedContent) {
  SchemaBuilder builder;
  builder.AddType("Catalog", "catalog", "Product{1,500}");
  builder.AddType("Product", "product", "Name Tag{0,10}");
  builder.AddType("Name", "name", "%");
  builder.AddType("Tag", "tag", "%");
  builder.AddStart("Catalog");
  EXPECT_TRUE(*IsSingleTypeDefinable(builder.Build()));
}

// A finite non-definable target: { r(x(a), y(a)), r(x(b), y(b)) } — its
// closure adds the two mixed documents.
Edtd FiniteTarget() {
  SchemaBuilder builder;
  builder.AddType("R1", "r", "X1 Y1");
  builder.AddType("R2", "r", "X2 Y2");
  builder.AddType("X1", "x", "A1");
  builder.AddType("Y1", "y", "A2");
  builder.AddType("X2", "x", "B1");
  builder.AddType("Y2", "y", "B2");
  builder.AddType("A1", "a", "%");
  builder.AddType("A2", "a", "%");
  builder.AddType("B1", "b", "%");
  builder.AddType("B2", "b", "%");
  builder.AddStart("R1");
  builder.AddStart("R2");
  return builder.Build();
}

// Candidate accepting only the a-document.
Edtd ADocOnly() {
  SchemaBuilder builder;
  builder.AddType("R", "r", "X Y");
  builder.AddType("X", "x", "A1");
  builder.AddType("Y", "y", "A2");
  builder.AddType("A1", "a", "%");
  builder.AddType("A2", "a", "%");
  builder.AddStart("R");
  return builder.Build();
}

TEST(LowerCheckTest, SingleDocumentIsMaximalLower) {
  // Adding the b-document to { a-doc } forces the mixed documents via
  // closure, which are outside the target: the a-doc alone is maximal.
  TreeBounds bounds{3, 2, 5};
  LowerCheckResult result =
      CheckMaximalLowerFinite(ADocOnly(), FiniteTarget(), bounds);
  EXPECT_TRUE(result.is_lower);
  EXPECT_TRUE(result.is_maximal);
  EXPECT_TRUE(result.exhaustive);
  EXPECT_FALSE(result.extension.has_value());
}

TEST(LowerCheckTest, DetectsExtensibleCandidates) {
  // Against a definable (exchange-closed) target, a strict sub-language
  // is never maximal: any missing document extends it safely.
  SchemaBuilder target;
  target.AddType("R", "r", "A? B?");
  target.AddType("A", "a", "%");
  target.AddType("B", "b", "%");
  target.AddStart("R");

  SchemaBuilder candidate;
  candidate.AddType("R", "r", "A?");
  candidate.AddType("A", "a", "%");
  candidate.AddStart("R");

  TreeBounds bounds{2, 2, 3};
  LowerCheckResult result =
      CheckMaximalLowerFinite(candidate.Build(), target.Build(), bounds);
  EXPECT_TRUE(result.is_lower);
  EXPECT_FALSE(result.is_maximal);
  ASSERT_TRUE(result.extension.has_value());
}

TEST(LowerCheckTest, RejectsNonLowerCandidates) {
  LowerCheckResult result = CheckMaximalLowerFinite(
      ADocOnly(), Theorem43Schemas().first, TreeBounds{3, 2, 5});
  EXPECT_FALSE(result.is_lower);
  EXPECT_FALSE(result.is_maximal);
}

TEST(LowerCheckTest, TargetItselfWhenDefinable) {
  SchemaBuilder builder;
  builder.AddType("R", "r", "A?");
  builder.AddType("A", "a", "%");
  builder.AddStart("R");
  Edtd schema = builder.Build();
  LowerCheckResult result =
      CheckMaximalLowerFinite(schema, schema, TreeBounds{2, 1, 2});
  EXPECT_TRUE(result.is_lower);
  EXPECT_TRUE(result.is_maximal);
}

TEST(LowerCheckTest, LowerUnionPassesTheCheckOnFiniteInstance) {
  // Theorem 4.8's output is a maximal lower approximation; verify on a
  // finite sibling-style instance.
  auto make = [](const std::string& leaf) {
    SchemaBuilder builder;
    builder.AddType("R", "r", "X Y");
    builder.AddType("X", "x", "Leaf");
    builder.AddType("Y", "y", "Leaf");
    builder.AddType("Leaf", leaf, "%");
    builder.AddStart("R");
    return builder.Build();
  };
  Edtd d1 = make("a");
  Edtd d2 = make("b");
  DfaXsd lower = LowerUnionFixingFirst(d1, d2);
  Edtd lower_edtd = StEdtdFromDfaXsd(lower);
  Edtd target = EdtdUnion(d1, d2);
  LowerCheckResult result =
      CheckMaximalLowerFinite(lower_edtd, target, TreeBounds{3, 2, 5});
  EXPECT_TRUE(result.is_lower);
  EXPECT_TRUE(result.is_maximal)
      << (result.extension.has_value()
              ? result.extension->ToString(lower.sigma)
              : "");
}

// Theorem 4.8's output is a *maximal* lower approximation; verify with
// the Section 4.4 decision procedure on random finite instances.
class LowerUnionMaximalityTest : public ::testing::TestWithParam<int> {};

TEST_P(LowerUnionMaximalityTest, LowerUnionIsMaximalOnFiniteInstances) {
  std::mt19937 rng(GetParam() * 28657 + 3);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.content_breadth = 2;
  Edtd d1 = RandomNonRecursiveStEdtd(&rng, params);
  Edtd d2 = RandomNonRecursiveStEdtd(&rng, params);
  auto [a1, a2] = AlignAlphabets(d1, d2);
  Edtd target = EdtdUnion(a1, a2);
  DfaXsd lower = LowerUnionFixingFirst(a1, a2);

  TreeBounds bounds{3, 2, a1.sigma.size()};
  // Keep the brute-force reference tractable.
  int64_t members = 0;
  for (const Tree& tree : EnumerateTrees(bounds)) {
    if (target.Accepts(tree)) ++members;
  }
  if (members > 80) GTEST_SKIP() << "instance too large";

  ClosureOptions options;
  options.max_trees = 5000;
  LowerCheckResult result = CheckMaximalLowerFinite(
      StEdtdFromDfaXsd(lower), target, bounds, options);
  EXPECT_TRUE(result.is_lower);
  EXPECT_TRUE(result.exhaustive);
  EXPECT_TRUE(result.is_maximal)
      << (result.extension.has_value()
              ? "extension: " + result.extension->ToString(a1.sigma)
              : "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, LowerUnionMaximalityTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace stap
