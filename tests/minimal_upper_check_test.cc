// Tests for Theorem 3.5: deciding whether a single-type EDTD is the
// minimal upper XSD-approximation of a given EDTD.
#include <gtest/gtest.h>

#include <random>

#include "oracles/minimal_upper_check.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/single_type.h"

namespace stap {
namespace {

Edtd NonDefinableEdtd() {
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

TEST(MinimalUpperCheckTest, AcceptsTheConstruction) {
  Edtd target = NonDefinableEdtd();
  Edtd candidate = StEdtdFromDfaXsd(MinimalUpperApproximation(target));
  EXPECT_TRUE(*IsMinimalUpperApproximation(candidate, target));
}

TEST(MinimalUpperCheckTest, RejectsNonUpperBounds) {
  Edtd target = NonDefinableEdtd();
  // A schema missing the b-documents is not even an upper bound.
  SchemaBuilder builder;
  builder.AddType("R", "r", "X Y");
  builder.AddType("X", "x", "A1");
  builder.AddType("Y", "y", "A2");
  builder.AddType("A1", "a", "%");
  builder.AddType("A2", "a", "%");
  builder.AddStart("R");
  EXPECT_FALSE(*IsMinimalUpperApproximation(builder.Build(), target));
}

TEST(MinimalUpperCheckTest, RejectsLooseUpperBounds) {
  Edtd target = NonDefinableEdtd();
  // Allowing optional children is an upper bound but not minimal.
  SchemaBuilder loose;
  loose.AddType("R", "r", "X? Y?");  // also allows missing children
  loose.AddType("X", "x", "LA | LB");
  loose.AddType("Y", "y", "LA2 | LB2");
  loose.AddType("LA", "a", "%");
  loose.AddType("LB", "b", "%");
  loose.AddType("LA2", "a", "%");
  loose.AddType("LB2", "b", "%");
  loose.AddStart("R");
  EXPECT_FALSE(*IsMinimalUpperApproximation(loose.Build(), target));
}

TEST(MinimalUpperCheckTest, DefinableLanguagesRequireEquality) {
  SchemaBuilder builder;
  builder.AddType("R", "r", "A*");
  builder.AddType("A", "a", "%");
  builder.AddStart("R");
  Edtd target = builder.Build();
  EXPECT_TRUE(*IsMinimalUpperApproximation(target, target));
  SchemaBuilder wider;
  wider.AddType("R", "r", "A* B?");
  wider.AddType("A", "a", "%");
  wider.AddType("B", "b", "%");
  wider.AddStart("R");
  EXPECT_FALSE(*IsMinimalUpperApproximation(wider.Build(), target));
}

TEST(MinimalUpperCheckTest, Theorem32FamilyCandidates) {
  Edtd target = Theorem32Family(2);
  Edtd exact_candidate = StEdtdFromDfaXsd(MinimalUpperApproximation(target));
  EXPECT_TRUE(*IsMinimalUpperApproximation(exact_candidate, target));
  // A unary-tree XSD accepting all (a+b)-chains that contain an a is an
  // upper bound but too coarse.
  SchemaBuilder coarse;
  coarse.AddType("S0", "b", "S0b | S0a");  // no a seen yet, root b
  coarse.AddType("S0a", "a", "S1b? | S1a?");
  coarse.AddType("S0b", "b", "S0b | S0a");
  coarse.AddType("S1a", "a", "S1b? | S1a?");
  coarse.AddType("S1b", "b", "S1b? | S1a?");
  coarse.AddStart("S0");
  coarse.AddStart("S0a");
  Edtd loose = coarse.Build();
  EXPECT_FALSE(*IsMinimalUpperApproximation(loose, target));
}

// Property: the construction's output always passes the check, and the
// check rejects a strictly widened variant.
class MinimalUpperRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MinimalUpperRandomTest, ConstructionPassesCheck) {
  std::mt19937 rng(GetParam() * 2654435761u + 3);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 4;
  Edtd target = RandomEdtd(&rng, params);
  Edtd candidate = StEdtdFromDfaXsd(MinimalUpperApproximation(target));
  EXPECT_TRUE(*IsMinimalUpperApproximation(candidate, target));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimalUpperRandomTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace stap
