// Tests for Construction 3.1 / Theorem 3.2: the minimal upper
// XSD-approximation of an EDTD.
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/inclusion.h"
#include "stap/approx/lower_check.h"
#include "stap/approx/closure.h"
#include "stap/approx/upper.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/enumerate.h"
#include "stap/treeauto/exact.h"

namespace stap {
namespace {

// The canonical non-single-type language { a(b(c)), a(b) } whose minimal
// upper approximation is { a(b(c?)) }.
Edtd TwoRootsEdtd() {
  SchemaBuilder builder;
  builder.AddType("R1", "a", "B1");
  builder.AddType("R2", "a", "B2");
  builder.AddType("B1", "b", "C");
  builder.AddType("B2", "b", "%");
  builder.AddType("C", "c", "%");
  builder.AddStart("R1");
  builder.AddStart("R2");
  return builder.Build();
}

TEST(UpperTest, ContainsTheInputLanguage) {
  Edtd edtd = TwoRootsEdtd();
  DfaXsd upper = MinimalUpperApproximation(edtd);
  EXPECT_TRUE(EdtdIncludedInXsd(edtd, upper));
}

TEST(UpperTest, ComputesTheSubsetMerge) {
  Edtd edtd = TwoRootsEdtd();
  DfaXsd upper = MinimalUpperApproximation(edtd);
  Alphabet& s = upper.sigma;
  int a = s.Find("a"), b = s.Find("b"), c = s.Find("c");
  // The merged schema is a(b(c?)).
  EXPECT_TRUE(upper.Accepts(Tree(a, {Tree(b, {Tree(c)})})));
  EXPECT_TRUE(upper.Accepts(Tree(a, {Tree(b)})));
  EXPECT_FALSE(upper.Accepts(Tree(a)));
  EXPECT_FALSE(upper.Accepts(Tree(a, {Tree(b, {Tree(c), Tree(c)})})));
  // Type-size: one merged state per ancestor path a, ab, abc.
  EXPECT_EQ(MinimizeXsd(upper).type_size(), 3);
}

TEST(UpperTest, ExactForSingleTypeInputs) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "B*");
  builder.AddType("B", "b", "%");
  builder.AddStart("R");
  Edtd edtd = builder.Build();
  ASSERT_TRUE(IsSingleType(edtd));
  DfaXsd upper = MinimalUpperApproximation(edtd);
  EXPECT_TRUE(*SingleTypeEquivalent(edtd, StEdtdFromDfaXsd(upper)));
}

TEST(UpperTest, ApproximationIsExactIffDefinable) {
  // { a(b(c)), a(b) } IS closed under ancestor-guarded exchange, so it is
  // single-type definable and the approximation adds nothing.
  Edtd definable = TwoRootsEdtd();
  EXPECT_TRUE(*IsSingleTypeDefinable(definable));
  DfaXsd upper = MinimalUpperApproximation(definable);
  for (const Tree& tree : EnumerateTrees({3, 2, 3})) {
    EXPECT_EQ(upper.Accepts(tree), definable.Accepts(tree))
        << tree.ToString(definable.sigma);
  }
}

TEST(UpperTest, ClosureEscapeForcesTheApproximation) {
  // Sibling-content interaction: L = { r(x(a), y(a)), r(x(b), y(b)) }
  // is not closed under exchange; the upper approximation must also
  // accept the mixed documents.
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
  Edtd edtd = builder.Build();
  DfaXsd upper = MinimalUpperApproximation(edtd);
  Alphabet& s = upper.sigma;
  int r = s.Find("r"), x = s.Find("x"), y = s.Find("y"), a = s.Find("a"),
      b = s.Find("b");
  Tree mixed(r, {Tree(x, {Tree(a)}), Tree(y, {Tree(b)})});
  EXPECT_FALSE(edtd.Accepts(mixed));
  EXPECT_TRUE(upper.Accepts(mixed));
  // And the approximation is tight: it equals the product of the per-path
  // possibilities; nothing with wrong shape enters.
  EXPECT_FALSE(upper.Accepts(Tree(r, {Tree(x, {Tree(a), Tree(a)}),
                                      Tree(y, {Tree(b)})})));
  // And this is the witness that the language is not definable.
  EXPECT_FALSE(*IsSingleTypeDefinable(edtd));
}

TEST(UpperTest, UpperOfUpperIsIdentity) {
  Edtd edtd = TwoRootsEdtd();
  DfaXsd upper = MinimalUpperApproximation(edtd);
  DfaXsd twice = MinimalUpperApproximation(StEdtdFromDfaXsd(upper));
  EXPECT_TRUE(XsdStructurallyEqual(MinimizeXsd(upper), MinimizeXsd(twice)));
}

TEST(UpperTest, EmptyLanguage) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "R");
  builder.AddStart("R");
  DfaXsd upper = MinimalUpperApproximation(builder.Build());
  EXPECT_EQ(upper.type_size(), 0);
  EXPECT_FALSE(upper.Accepts(Tree(0)));
}

// Theorem 3.2's exponential family: type-size of the approximation is
// exactly 2^n-ish while the input is linear in n.
class Theorem32Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem32Test, ExponentialBlowupAndCorrectness) {
  const int n = GetParam();
  Edtd edtd = Theorem32Family(n);
  EXPECT_LE(edtd.Size(), 64 * (n + 2));  // linear-size input
  DfaXsd upper = MinimizeXsd(MinimalUpperApproximation(edtd));
  // Minimal DFA for (a+b)*a(a+b)^n has 2^(n+1) states; the unary-tree XSD
  // mirrors it (up to final-state bookkeeping), so expect >= 2^n types.
  EXPECT_GE(upper.type_size(), 1 << n) << "n=" << n;
  // Unary members: exactly the words of the regex. Check a few.
  int a = upper.sigma.Find("a");
  int b = upper.sigma.Find("b");
  Word all_b(n + 1, b);
  Word good = all_b;
  good[0] = a;
  EXPECT_TRUE(upper.Accepts(Tree::Unary(good)));
  EXPECT_FALSE(upper.Accepts(Tree::Unary(all_b)));
  // Inclusion of the original language.
  EXPECT_TRUE(EdtdIncludedInXsd(edtd, upper));
  // Unary languages are closed under exchange only when the underlying
  // string language is "path-closed"; here the language IS definable —
  // unary tree languages are always single-type definable — so the
  // approximation is exact.
  EXPECT_TRUE(EdtdIncludedInExact(StEdtdFromDfaXsd(upper), edtd));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Theorem32Test, ::testing::Values(1, 2, 3, 4));

// Ground-truth minimality on random *finite* EDTDs: the approximation
// must accept exactly closure(L(D)) (Theorem 3.2's characterization),
// which is computable exactly when L(D) is finite.
class UpperFiniteTest : public ::testing::TestWithParam<int> {};

TEST_P(UpperFiniteTest, EqualsExactClosureOfFiniteLanguages) {
  std::mt19937 rng(GetParam() * 60013 + 29);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.content_breadth = 2;
  Edtd edtd = RandomFiniteEdtd(&rng, params);
  // Depth <= 3 (DAG over 3 types), width <= 2: the enumeration is
  // complete, but cap the member count to keep closures tractable.
  std::vector<Tree> members;
  for (const Tree& tree : EnumerateTrees({3, 2, edtd.sigma.size()})) {
    if (edtd.Accepts(tree)) members.push_back(tree);
  }
  if (members.size() > 40) GTEST_SKIP() << "instance too large";
  ClosureOptions options;
  options.max_trees = 20000;
  ClosureResult closure = CloseUnderExchange(members, options);
  ASSERT_TRUE(closure.saturated);

  DfaXsd upper = MinimalUpperApproximation(edtd);
  // Every closure member is in the approximation (closedness direction).
  for (const Tree& tree : closure.trees) {
    EXPECT_TRUE(upper.Accepts(tree)) << tree.ToString(edtd.sigma);
  }
  // And nothing else within the bounds (minimality direction).
  for (const Tree& tree : EnumerateTrees({3, 2, edtd.sigma.size()})) {
    if (upper.Accepts(tree)) {
      EXPECT_TRUE(closure.Contains(tree)) << tree.ToString(edtd.sigma);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpperFiniteTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace stap
