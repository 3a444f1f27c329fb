// Unit tests for XSD minimization (the paper's reference [20]):
// uniqueness of the minimal DFA-based XSD and language preservation.
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/inclusion.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

TEST(MinimizeXsdTest, MergesEquivalentTypes) {
  // Two copies of the same a/c structure, reachable via different parents
  // (so the single-type property is kept).
  SchemaBuilder builder;
  builder.AddType("Root", "r", "P Q");
  builder.AddType("P", "p", "A1*");
  builder.AddType("Q", "q", "A2*");
  builder.AddType("A1", "a", "C1*");
  builder.AddType("A2", "a", "C2*");
  builder.AddType("C1", "c", "%");
  builder.AddType("C2", "c", "%");
  builder.AddStart("Root");
  Edtd edtd = builder.Build();
  ASSERT_TRUE(IsSingleType(edtd));
  DfaXsd minimized = MinimizeXsd(DfaXsdFromStEdtd(ReduceEdtd(edtd)));
  // A1/A2 collapse, as do C1/C2: states r, p, q, a, c remain.
  EXPECT_EQ(minimized.type_size(), 5);
}

TEST(MinimizeXsdTest, PreservesLanguage) {
  SchemaBuilder builder;
  builder.AddType("Root", "r", "A B?");
  builder.AddType("A", "a", "C*");
  builder.AddType("B", "b", "C C?");
  builder.AddType("C", "c", "%");
  builder.AddStart("Root");
  Edtd edtd = ReduceEdtd(builder.Build());
  ASSERT_TRUE(IsSingleType(edtd));
  DfaXsd original = DfaXsdFromStEdtd(edtd);
  DfaXsd minimized = MinimizeXsd(original);
  for (const Tree& tree : EnumerateTrees({3, 2, 4})) {
    EXPECT_EQ(original.Accepts(tree), minimized.Accepts(tree))
        << tree.ToString(edtd.sigma);
  }
  EXPECT_LE(minimized.type_size(), original.type_size());
}

TEST(MinimizeXsdTest, CanonicalAcrossPresentations) {
  // Same language, different presentations (redundant content regex, an
  // orphan type): minimization converges to structurally equal results.
  SchemaBuilder b1;
  b1.AddType("R", "r", "A B?");
  b1.AddType("A", "a", "%");
  b1.AddType("B", "b", "%");
  b1.AddStart("R");

  SchemaBuilder b2;
  b2.AddType("R", "r", "A | A B");
  b2.AddType("A", "a", "~ | %");
  b2.AddType("B", "b", "%");
  b2.AddType("Orphan", "b", "Orphan");
  b2.AddStart("R");

  DfaXsd m1 = MinimizeXsd(DfaXsdFromStEdtd(ReduceEdtd(b1.Build())));
  DfaXsd m2 = MinimizeXsd(DfaXsdFromStEdtd(ReduceEdtd(b2.Build())));
  EXPECT_TRUE(XsdStructurallyEqual(m1, m2));
}

TEST(MinimizeXsdTest, EmptyLanguage) {
  SchemaBuilder builder;
  builder.AddType("R", "r", "R");
  builder.AddStart("R");
  Edtd reduced = ReduceEdtd(builder.Build());
  DfaXsd minimized = MinimizeXsd(DfaXsdFromStEdtd(reduced));
  EXPECT_EQ(minimized.type_size(), 0);
}

TEST(MinimizeXsdTest, StEdtdRoundTrip) {
  SchemaBuilder builder;
  builder.AddType("R", "r", "X | Y");
  builder.AddType("X", "a", "%");
  builder.AddType("Y", "b", "%");
  builder.AddStart("R");
  Edtd edtd = builder.Build();
  Edtd minimized = StEdtdFromDfaXsd(MinimizeXsd(DfaXsdFromStEdtd(edtd)));
  EXPECT_TRUE(*SingleTypeEquivalent(edtd, minimized));
}

// Property sweep: for random single-type schemas, the minimized XSD is
// language-equivalent, no bigger, and canonical (minimizing twice is a
// fixpoint).
class MinimizeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandomTest, SoundCanonicalAndIdempotent) {
  std::mt19937 rng(GetParam() * 7919 + 13);
  RandomSchemaParams params;
  params.num_types = 6;
  Edtd edtd = RandomStEdtd(&rng, params);
  ASSERT_TRUE(IsSingleType(edtd));
  DfaXsd original = DfaXsdFromStEdtd(edtd);
  DfaXsd minimized = MinimizeXsd(original);
  EXPECT_LE(minimized.type_size(), original.type_size());
  EXPECT_TRUE(
      *SingleTypeEquivalent(edtd, StEdtdFromDfaXsd(minimized)));
  EXPECT_TRUE(XsdStructurallyEqual(minimized, MinimizeXsd(minimized)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeRandomTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace stap
