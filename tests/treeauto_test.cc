// Unit tests for binary tree automata, the binary encoding (Figure 3
// flavor), and the exact EXPTIME decision procedures.
#include <gtest/gtest.h>

#include "stap/gen/families.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/tree/enumerate.h"
#include "stap/treeauto/bta.h"
#include "stap/treeauto/encoding.h"
#include "stap/treeauto/exact.h"

namespace stap {
namespace {

TEST(EncodingTest, RoundTripsAllSmallTrees) {
  const int num_symbols = 2;
  for (const Tree& tree : EnumerateTrees({3, 3, num_symbols})) {
    Tree binary = EncodeBinary(tree, num_symbols);
    // Binary shape: every node has 0 or 2 children.
    for (const TreePath& path : binary.AllPaths()) {
      size_t arity = binary.At(path).children.size();
      EXPECT_TRUE(arity == 0 || arity == 2);
    }
    StatusOr<Tree> decoded = DecodeBinary(binary, num_symbols);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, tree);
  }
}

TEST(EncodingTest, DecodeRejectsGarbage) {
  const int hash = HashSymbol(2);
  EXPECT_FALSE(DecodeBinary(Tree(hash), 2).ok());
  EXPECT_FALSE(DecodeBinary(Tree(0, {Tree(0), Tree(hash)}), 2).ok());
  EXPECT_FALSE(DecodeBinary(Tree(0, {Tree(hash)}), 2).ok());
}

TEST(BtaTest, ManualAutomatonEvaluation) {
  // Accepts binary trees over {0} of the form 0(leaf, leaf).
  Bta bta(2, 1);
  bta.AddLeafTransition(0, 0);
  bta.AddInternalTransition(0, 0, 0, 1);
  bta.SetFinal(1);
  EXPECT_TRUE(bta.Accepts(Tree(0, {Tree(0), Tree(0)})));
  EXPECT_FALSE(bta.Accepts(Tree(0)));
  EXPECT_FALSE(bta.Accepts(
      Tree(0, {Tree(0, {Tree(0), Tree(0)}), Tree(0)})));
  EXPECT_FALSE(bta.IsEmpty());
  EXPECT_EQ(bta.NumTransitions(), 2);
}

TEST(BtaTest, EmptinessFixpoint) {
  Bta bta(2, 1);
  bta.AddInternalTransition(0, 1, 1, 0);  // state 1 is never leaf-reachable
  bta.SetFinal(0);
  EXPECT_TRUE(bta.IsEmpty());
}

TEST(DetBtaTest, AgreesWithNondeterministic) {
  Edtd edtd = ReduceEdtd(Example26Edtd());
  Bta bta = BtaFromEdtd(edtd);
  DetBta det = *DeterminizeBta(bta);
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    Tree binary = EncodeBinary(tree, edtd.num_symbols());
    EXPECT_EQ(det.Accepts(binary), bta.Accepts(binary))
        << tree.ToString(edtd.sigma);
  }
}

TEST(BtaFromEdtdTest, AcceptsExactlyEncodedLanguage) {
  Edtd edtd = ReduceEdtd(Example26Edtd());
  Bta bta = BtaFromEdtd(edtd);
  for (const Tree& tree : EnumerateTrees({4, 2, 2})) {
    Tree binary = EncodeBinary(tree, edtd.num_symbols());
    EXPECT_EQ(bta.Accepts(binary), edtd.Accepts(tree))
        << tree.ToString(edtd.sigma);
  }
}

TEST(ExactTest, InclusionAndEquivalence) {
  SchemaBuilder sub;
  sub.AddType("R", "a", "B B");
  sub.AddType("B", "b", "%");
  sub.AddStart("R");

  SchemaBuilder super;
  super.AddType("R", "a", "B*");
  super.AddType("B", "b", "%");
  super.AddStart("R");

  Edtd small = sub.Build();
  Edtd big = super.Build();
  EXPECT_TRUE(EdtdIncludedInExact(small, big));
  EXPECT_FALSE(EdtdIncludedInExact(big, small));
  EXPECT_TRUE(EdtdEquivalentExact(small, small));
  EXPECT_FALSE(EdtdEquivalentExact(small, big));

  std::optional<Tree> witness = EdtdInclusionCounterexample(big, small);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(big.Accepts(*witness));
  EXPECT_FALSE(small.Accepts(*witness));
}

TEST(ExactTest, NonSingleTypeLanguagesSupported) {
  // The exact procedures must handle EDTDs beyond ST-REG: the language
  // { a(b(c)), a(b) } forced through two root types.
  SchemaBuilder builder;
  builder.AddType("R1", "a", "B1");
  builder.AddType("R2", "a", "B2");
  builder.AddType("B1", "b", "C");
  builder.AddType("B2", "b", "%");
  builder.AddType("C", "c", "%");
  builder.AddStart("R1");
  builder.AddStart("R2");
  Edtd both = builder.Build();

  SchemaBuilder one;
  one.AddType("R", "a", "B");
  one.AddType("B", "b", "C?");
  one.AddType("C", "c", "%");
  one.AddStart("R");
  Edtd merged = one.Build();
  EXPECT_TRUE(EdtdEquivalentExact(both, merged));
}

TEST(ExactTest, EmptyLanguageEdgeCases) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "R");
  builder.AddStart("R");
  Edtd empty = ReduceEdtd(builder.Build());

  SchemaBuilder leaf;
  leaf.AddType("R", "a", "%");
  leaf.AddStart("R");
  Edtd single = leaf.Build();

  // Align alphabets (both must speak of 'a').
  EXPECT_TRUE(EdtdIncludedInExact(empty, single));
  EXPECT_FALSE(EdtdIncludedInExact(single, empty));
}

}  // namespace
}  // namespace stap
