// Tests for Theorems 3.6 / 3.8 / 3.9 / 3.10: upper approximations of
// union, intersection, complement, difference of XSDs.
#include <gtest/gtest.h>

#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

// D1 = documents r(x(a), y(a)); D2 = documents r(x(b), y(b)).
std::pair<Edtd, Edtd> SiblingSchemas() {
  auto make = [](const std::string& leaf) {
    SchemaBuilder builder;
    builder.AddType("R", "r", "X Y");
    builder.AddType("X", "x", "Leaf");
    builder.AddType("Y", "y", "Leaf");
    builder.AddType("Leaf", leaf, "%");
    builder.AddStart("R");
    return builder.Build();
  };
  return {make("a"), make("b")};
}

TEST(UpperUnionTest, CoversBothAndAddsTheForcedMix) {
  auto [d1, d2] = SiblingSchemas();
  DfaXsd upper = *UpperUnion(d1, d2);
  Alphabet& s = upper.sigma;
  int r = s.Find("r"), x = s.Find("x"), y = s.Find("y"), a = s.Find("a"),
      b = s.Find("b");
  EXPECT_TRUE(upper.Accepts(Tree(r, {Tree(x, {Tree(a)}),
                                     Tree(y, {Tree(a)})})));
  EXPECT_TRUE(upper.Accepts(Tree(r, {Tree(x, {Tree(b)}),
                                     Tree(y, {Tree(b)})})));
  // Forced by ancestor-guarded exchange between the two disjuncts:
  EXPECT_TRUE(upper.Accepts(Tree(r, {Tree(x, {Tree(a)}),
                                     Tree(y, {Tree(b)})})));
  // Not everything enters: shapes outside both schemas stay out.
  EXPECT_FALSE(upper.Accepts(Tree(r, {Tree(x, {Tree(a)})})));
  EXPECT_FALSE(upper.Accepts(Tree(x)));
}

TEST(UpperUnionTest, InclusionAndMinimalityOnEnumeration) {
  auto [d1, d2] = SiblingSchemas();
  DfaXsd upper = *UpperUnion(d1, d2);
  // Upper bound property.
  EXPECT_TRUE(EdtdIncludedInXsd(d1, upper));
  EXPECT_TRUE(EdtdIncludedInXsd(d2, upper));
  // Minimality: equal to Construction 3.1 on the union EDTD, which the
  // paper proves minimal; cross-check against the generic path.
  DfaXsd generic = MinimalUpperApproximation(EdtdUnion(d1, d2));
  EXPECT_TRUE(XsdStructurallyEqual(MinimizeXsd(upper),
                                   MinimizeXsd(generic)));
}

TEST(UpperUnionTest, UnionOfSameSchemaIsIdentity) {
  auto [d1, d2] = SiblingSchemas();
  (void)d2;
  DfaXsd upper = *UpperUnion(d1, d1);
  EXPECT_TRUE(*SingleTypeEquivalent(d1, StEdtdFromDfaXsd(upper)));
}

TEST(UpperUnionTest, DisjointAlphabetsAlign) {
  SchemaBuilder b1;
  b1.AddType("A", "a", "%");
  b1.AddStart("A");
  SchemaBuilder b2;
  b2.AddType("B", "b", "%");
  b2.AddStart("B");
  DfaXsd upper = *UpperUnion(b1.Build(), b2.Build());
  EXPECT_TRUE(upper.Accepts(Tree(upper.sigma.Find("a"))));
  EXPECT_TRUE(upper.Accepts(Tree(upper.sigma.Find("b"))));
}

TEST(UpperIntersectionTest, IsExact) {
  // D1: r with a* children; D2: r with exactly two a children.
  SchemaBuilder b1;
  b1.AddType("R", "r", "A*");
  b1.AddType("A", "a", "%");
  b1.AddStart("R");
  SchemaBuilder b2;
  b2.AddType("R", "r", "A A");
  b2.AddType("A", "a", "A?");
  b2.AddStart("R");
  Edtd d1 = b1.Build(), d2 = b2.Build();
  DfaXsd inter = *UpperIntersection(d1, d2);
  Alphabet& s = inter.sigma;
  int r = s.Find("r"), a = s.Find("a");
  EXPECT_TRUE(inter.Accepts(Tree(r, {Tree(a), Tree(a)})));
  EXPECT_FALSE(inter.Accepts(Tree(r, {Tree(a)})));
  // d2 allows nested a's, d1 does not: intersection must not.
  EXPECT_FALSE(inter.Accepts(Tree(r, {Tree(a, {Tree(a)}), Tree(a)})));
  // Exactness on a full enumeration.
  for (const Tree& tree : EnumerateTrees({3, 3, 2})) {
    EXPECT_EQ(inter.Accepts(tree), d1.Accepts(tree) && d2.Accepts(tree))
        << tree.ToString(s);
  }
}

TEST(UpperIntersectionTest, EmptyIntersection) {
  SchemaBuilder b1;
  b1.AddType("A", "a", "%");
  b1.AddStart("A");
  SchemaBuilder b2;
  b2.AddType("B", "b", "%");
  b2.AddStart("B");
  DfaXsd inter = *UpperIntersection(b1.Build(), b2.Build());
  EXPECT_EQ(inter.type_size(), 0);
}

TEST(UpperComplementTest, Theorem411ComplementWidensToAllNonLeaves) {
  // Complement of the Theorem 4.11 DTD (unary a-chains): trees with a
  // rank >= 2 node somewhere. That language is NOT single-type definable
  // (Theorem 4.11 shows it has infinitely many maximal lower
  // approximations); its closure under ancestor-guarded exchange pulls
  // every chain of length >= 2 back in, so the minimal upper
  // approximation is "every a-tree with at least two nodes".
  Edtd chains = Theorem411Dtd();
  DfaXsd upper = *UpperComplement(chains);
  for (const Tree& tree : EnumerateTrees({4, 2, 1})) {
    EXPECT_EQ(upper.Accepts(tree), tree.NumNodes() >= 2)
        << tree.ToString(chains.sigma);
  }
}

TEST(UpperComplementTest, IsAnUpperBoundInGeneral) {
  auto [d1, d2] = SiblingSchemas();
  (void)d2;
  DfaXsd upper = *UpperComplement(d1);
  // Every non-member within bounds is accepted by the approximation.
  for (const Tree& tree : EnumerateTrees({3, 2, d1.sigma.size()})) {
    if (!d1.Accepts(tree)) {
      EXPECT_TRUE(upper.Accepts(tree)) << tree.ToString(d1.sigma);
    }
  }
}

TEST(UpperDifferenceTest, CarvesOutTheSecondLanguage) {
  // D1: r -> a?; D2: r -> a. Difference: exactly { r } (the childless
  // root), which is single-type definable, so the result is exact.
  SchemaBuilder b1;
  b1.AddType("R", "r", "A?");
  b1.AddType("A", "a", "%");
  b1.AddStart("R");
  SchemaBuilder b2;
  b2.AddType("R", "r", "A");
  b2.AddType("A", "a", "%");
  b2.AddStart("R");
  Edtd d1 = b1.Build(), d2 = b2.Build();
  DfaXsd diff = *UpperDifference(d1, d2);
  int r = diff.sigma.Find("r"), a = diff.sigma.Find("a");
  EXPECT_TRUE(diff.Accepts(Tree(r)));
  EXPECT_FALSE(diff.Accepts(Tree(r, {Tree(a)})));
  EXPECT_FALSE(diff.Accepts(Tree(a)));
}

TEST(UpperDifferenceTest, UpperBoundOnEnumeration) {
  auto [d1, d2] = Theorem43Schemas();
  // D1 is not single-type-comparable with D2? Both are DTDs, hence
  // single-type. Difference: a*b chains minus a-trees = all of L(D1).
  DfaXsd diff = *UpperDifference(d1, d2);
  for (const Tree& tree : EnumerateTrees({4, 2, 2})) {
    if (d1.Accepts(tree) && !d2.Accepts(tree)) {
      EXPECT_TRUE(diff.Accepts(tree)) << tree.ToString(d1.sigma);
    }
    // The approximation never exceeds L(D1) (D_c ⊆ D1 and upper
    // approximations of sub-languages of a single-type language stay
    // inside it).
    if (!d1.Accepts(tree)) {
      EXPECT_FALSE(diff.Accepts(tree)) << tree.ToString(d1.sigma);
    }
  }
}

TEST(UpperDifferenceTest, DifferenceWithSelfIsEmpty) {
  auto [d1, d2] = SiblingSchemas();
  (void)d2;
  DfaXsd diff = *UpperDifference(d1, d1);
  EXPECT_EQ(MinimizeXsd(diff).type_size(), 0);
}

TEST(EdtdIntersectionTest, ExactOnGeneralEdtds) {
  // Non-single-type inputs: the intersection must respect typings, not
  // just labels.
  SchemaBuilder b1;
  b1.AddType("R1", "r", "X1");
  b1.AddType("R2", "r", "X2 X2");
  b1.AddType("X1", "x", "%");
  b1.AddType("X2", "x", "%");
  b1.AddStart("R1");
  b1.AddStart("R2");
  SchemaBuilder b2;
  b2.AddType("R", "r", "X X?");
  b2.AddType("X", "x", "X?");
  b2.AddStart("R");
  Edtd d1 = b1.Build(), d2 = b2.Build();
  Edtd inter = *EdtdIntersection(d1, d2);
  auto [a1, a2] = AlignAlphabets(d1, d2);
  for (const Tree& tree : EnumerateTrees({3, 2, a1.sigma.size()})) {
    EXPECT_EQ(inter.Accepts(tree), a1.Accepts(tree) && a2.Accepts(tree))
        << tree.ToString(a1.sigma);
  }
}

TEST(EdtdIntersectionTest, AgreesWithSingleTypeProduct) {
  auto [d1, d2] = Theorem38Family(2);
  Edtd inter = *EdtdIntersection(d1, d2);
  DfaXsd product = *UpperIntersection(d1, d2);
  for (int len : {3, 5, 15, 16}) {
    Tree chain = Tree::Unary(Word(static_cast<size_t>(len), 0));
    EXPECT_EQ(inter.Accepts(chain), product.Accepts(chain)) << len;
  }
  EXPECT_TRUE(inter.Accepts(Tree::Unary(Word(15, 0))));  // lcm(3, 5)
}

TEST(ComplementEdtdTest, DefinesTheExactComplement) {
  auto [d1, d2] = SiblingSchemas();
  (void)d2;
  Edtd reduced = ReduceEdtd(d1);
  Edtd complement = *ComplementEdtd(DfaXsdFromStEdtd(reduced));
  for (const Tree& tree : EnumerateTrees({3, 2, d1.sigma.size()})) {
    EXPECT_EQ(complement.Accepts(tree), !d1.Accepts(tree))
        << tree.ToString(d1.sigma);
  }
}

TEST(DifferenceEdtdTest, DefinesTheExactDifference) {
  auto [d1, d2] = Theorem43Schemas();
  Edtd r1 = ReduceEdtd(d1);
  Edtd r2 = ReduceEdtd(d2);
  // Align to a common alphabet first.
  auto [a1, a2] = AlignAlphabets(r1, r2);
  Edtd difference = *DifferenceEdtd(ReduceEdtd(a1),
                                    DfaXsdFromStEdtd(ReduceEdtd(a2)));
  for (const Tree& tree : EnumerateTrees({4, 2, 2})) {
    EXPECT_EQ(difference.Accepts(tree),
              a1.Accepts(tree) && !a2.Accepts(tree))
        << tree.ToString(a1.sigma);
  }
}

// The Theorem 3.6 family: quadratic type-size of the union approximation.
class Theorem36Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem36Test, QuadraticTypeSize) {
  const int n = GetParam();
  auto [d1, d2] = Theorem36Family(n);
  DfaXsd upper = MinimizeXsd(*UpperUnion(d1, d2));
  // The proof exhibits n^2 pairwise-distinct types (reached by a^k b^l).
  EXPECT_GE(upper.type_size(), n * n);
  // Sanity: members of both languages stay in.
  EXPECT_TRUE(EdtdIncludedInXsd(d1, upper));
  EXPECT_TRUE(EdtdIncludedInXsd(d2, upper));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Theorem36Test, ::testing::Values(2, 3, 4));

// Theorem 3.8's intersection family: Ω(p1·p2) types.
class Theorem38Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem38Test, ProductTypeSize) {
  const int n = GetParam();
  auto [d1, d2] = Theorem38Family(n);
  int p1 = ReduceEdtd(d1).num_types();
  int p2 = ReduceEdtd(d2).num_types();
  DfaXsd inter = MinimizeXsd(*UpperIntersection(d1, d2));
  EXPECT_GE(inter.type_size(), p1 * p2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Theorem38Test, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace stap
