// Tests for Lemma 3.3: polynomial inclusion of an EDTD in a single-type
// EDTD, cross-checked against the exact tree-automata route.
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/treeauto/exact.h"

namespace stap {
namespace {

TEST(InclusionTest, BasicContainments) {
  SchemaBuilder small;
  small.AddType("R", "r", "A A");
  small.AddType("A", "a", "%");
  small.AddStart("R");

  SchemaBuilder big;
  big.AddType("R", "r", "A*");
  big.AddType("A", "a", "B?");
  big.AddType("B", "b", "%");
  big.AddStart("R");

  Edtd d_small = small.Build();
  Edtd d_big = big.Build();
  EXPECT_TRUE(*IncludedInSingleType(d_small, d_big));
  EXPECT_FALSE(*IncludedInSingleType(d_big, d_small));
  EXPECT_TRUE(*SingleTypeEquivalent(d_small, d_small));
  EXPECT_FALSE(*SingleTypeEquivalent(d_small, d_big));
}

TEST(InclusionTest, NonSingleTypeLeftSide) {
  // Lemma 3.3 allows an arbitrary EDTD on the left.
  SchemaBuilder nst;
  nst.AddType("R1", "a", "B1");
  nst.AddType("R2", "a", "B2");
  nst.AddType("B1", "b", "C");
  nst.AddType("B2", "b", "%");
  nst.AddType("C", "c", "%");
  nst.AddStart("R1");
  nst.AddStart("R2");
  Edtd left = nst.Build();

  SchemaBuilder st;
  st.AddType("R", "a", "B");
  st.AddType("B", "b", "C?");
  st.AddType("C", "c", "%");
  st.AddStart("R");
  Edtd right = st.Build();

  EXPECT_TRUE(*IncludedInSingleType(left, right));
  // Shrinking the right side breaks it.
  SchemaBuilder smaller;
  smaller.AddType("R", "a", "B");
  smaller.AddType("B", "b", "C");
  smaller.AddType("C", "c", "%");
  smaller.AddStart("R");
  EXPECT_FALSE(*IncludedInSingleType(left, smaller.Build()));
}

TEST(InclusionTest, AlphabetMismatchesHandled) {
  SchemaBuilder b1;
  b1.AddType("A", "a", "%");
  b1.AddStart("A");
  SchemaBuilder b2;
  b2.AddType("B", "b", "%");
  b2.AddStart("B");
  EXPECT_FALSE(*IncludedInSingleType(b1.Build(), b2.Build()));
  // Extra unknown symbols on the left must fail, not crash.
  SchemaBuilder b3;
  b3.AddType("A", "a", "C?");
  b3.AddType("C", "c", "%");
  b3.AddStart("A");
  SchemaBuilder b4;
  b4.AddType("A", "a", "%");
  b4.AddStart("A");
  EXPECT_FALSE(*IncludedInSingleType(b3.Build(), b4.Build()));
  EXPECT_TRUE(*IncludedInSingleType(b4.Build(), b3.Build()));
}

TEST(InclusionTest, EmptyLanguages) {
  SchemaBuilder empty;
  empty.AddType("R", "a", "R");
  empty.AddStart("R");
  SchemaBuilder leaf;
  leaf.AddType("R", "a", "%");
  leaf.AddStart("R");
  EXPECT_TRUE(*IncludedInSingleType(empty.Build(), leaf.Build()));
  EXPECT_FALSE(*IncludedInSingleType(leaf.Build(), empty.Build()));
  EXPECT_TRUE(*IncludedInSingleType(empty.Build(), empty.Build()));
}

TEST(InclusionTest, ContentModelSubtleties) {
  // Same shape, different counting: a^(<=2) vs a^(<=3) children.
  SchemaBuilder b1;
  b1.AddType("R", "r", "A? A?");
  b1.AddType("A", "a", "%");
  b1.AddStart("R");
  SchemaBuilder b2;
  b2.AddType("R", "r", "A? A? A?");
  b2.AddType("A", "a", "%");
  b2.AddStart("R");
  EXPECT_TRUE(*IncludedInSingleType(b1.Build(), b2.Build()));
  EXPECT_FALSE(*IncludedInSingleType(b2.Build(), b1.Build()));
}

// Property sweep: the PTIME algorithm agrees with the exact EXPTIME route
// on random schema pairs.
class InclusionAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(InclusionAgreementTest, AgreesWithExactDecision) {
  std::mt19937 rng(GetParam() * 104729 + 7);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd left = RandomEdtd(&rng, params);
  Edtd right = RandomStEdtd(&rng, params);
  auto [l, r] = AlignAlphabets(left, right);
  bool ptime = *IncludedInSingleType(l, r);
  bool exact = EdtdIncludedInExact(ReduceEdtd(l), ReduceEdtd(r));
  EXPECT_EQ(ptime, exact);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InclusionAgreementTest,
                         ::testing::Range(0, 40));

// Checks that MinimalUpperApproximation is a fixpoint on its own output
// (single-type inputs are reproduced exactly), which catches gross
// inflation bugs in Construction 3.1.
bool UpperIsFixpoint(const DfaXsd& upper) {
  Edtd upper_edtd = StEdtdFromDfaXsd(upper);
  DfaXsd twice = MinimalUpperApproximation(upper_edtd);
  return EdtdIncludedInExact(StEdtdFromDfaXsd(twice), upper_edtd);
}

// The upper approximation is always a superset (property over random
// EDTDs) and idempotent.
class UpperIsUpperTest : public ::testing::TestWithParam<int> {};

TEST_P(UpperIsUpperTest, InputIncludedInApproximation) {
  std::mt19937 rng(GetParam() * 31337 + 5);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd edtd = RandomEdtd(&rng, params);
  DfaXsd upper = MinimalUpperApproximation(edtd);
  EXPECT_TRUE(EdtdIncludedInXsd(edtd, upper));
  EXPECT_TRUE(UpperIsFixpoint(upper));
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpperIsUpperTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace stap
