// Cross-cutting edge cases: degenerate alphabets and languages, deep and
// wide documents, and boundary behaviors the main suites do not reach.
#include <gtest/gtest.h>

#include "stap/approx/inclusion.h"
#include "stap/approx/nv.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/automata/determinize.h"
#include "stap/automata/minimize.h"
#include "stap/schema/builder.h"
#include "stap/count/counter.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/type_automaton.h"

namespace stap {
namespace {

Edtd SingleLeafSchema() {
  SchemaBuilder builder;
  builder.AddType("A", "a", "%");
  builder.AddStart("A");
  return builder.Build();
}

Edtd EmptyLanguageSchema() {
  SchemaBuilder builder;
  builder.AddType("A", "a", "A");
  builder.AddStart("A");
  return builder.Build();
}

TEST(EdgeCaseTest, SingletonLanguageThroughEveryOperator) {
  Edtd leaf = SingleLeafSchema();
  // Upper approximation of a singleton is itself.
  DfaXsd upper = MinimalUpperApproximation(leaf);
  EXPECT_TRUE(upper.Accepts(Tree(0)));
  EXPECT_FALSE(upper.Accepts(Tree(0, {Tree(0)})));
  EXPECT_EQ(MinimizeXsd(upper).type_size(), 1);
  // Union / intersection / difference with itself.
  EXPECT_TRUE(UpperUnion(leaf, leaf)->Accepts(Tree(0)));
  EXPECT_TRUE(UpperIntersection(leaf, leaf)->Accepts(Tree(0)));
  EXPECT_EQ(MinimizeXsd(*UpperDifference(leaf, leaf)).type_size(), 0);
  // Complement: everything except the single leaf.
  DfaXsd complement = *UpperComplement(leaf);
  EXPECT_FALSE(complement.Accepts(Tree(0)));
  EXPECT_TRUE(complement.Accepts(Tree(0, {Tree(0)})));
  // Lower approximations.
  DfaXsd lower = *LowerUnionFixingFirst(leaf, leaf);
  EXPECT_TRUE(lower.Accepts(Tree(0)));
}

TEST(EdgeCaseTest, EmptyLanguageThroughEveryOperator) {
  Edtd empty = EmptyLanguageSchema();
  Edtd leaf = SingleLeafSchema();
  EXPECT_EQ(MinimalUpperApproximation(empty).type_size(), 0);
  EXPECT_TRUE(
      *SingleTypeEquivalent(StEdtdFromDfaXsd(*UpperUnion(empty, leaf)), leaf));
  EXPECT_EQ(MinimizeXsd(*UpperIntersection(empty, leaf)).type_size(), 0);
  EXPECT_EQ(MinimizeXsd(*UpperDifference(empty, leaf)).type_size(), 0);
  // Difference from the other side: leaf \ ∅ = leaf.
  DfaXsd diff = *UpperDifference(leaf, empty);
  EXPECT_TRUE(diff.Accepts(Tree(0)));
  // Complement of ∅ is everything.
  DfaXsd complement = *UpperComplement(empty);
  EXPECT_TRUE(complement.Accepts(Tree(0)));
  EXPECT_TRUE(complement.Accepts(Tree(0, {Tree(0), Tree(0)})));
  // nv(∅, leaf) is empty; nv(leaf, ∅) is all of leaf.
  EXPECT_EQ(MinimizeXsd(*NonViolating(leaf, empty)).type_size(), 0);
  EXPECT_TRUE(NonViolating(empty, leaf)->Accepts(Tree(0)));
  // Inclusions.
  EXPECT_TRUE(*IncludedInSingleType(empty, leaf));
  EXPECT_TRUE(*IncludedInSingleType(empty, empty));
  EXPECT_FALSE(*IncludedInSingleType(leaf, empty));
  EXPECT_FALSE(XsdInclusionWitness(empty,
                                   DfaXsdFromStEdtd(ReduceEdtd(leaf)))
                   ->has_value());
}

TEST(EdgeCaseTest, UnaryAlphabetApproximations) {
  // Unary alphabet, recursive schema: chains of even length.
  SchemaBuilder builder;
  builder.AddType("E", "a", "O");
  builder.AddType("O", "a", "E?");
  builder.AddStart("E");
  Edtd even = builder.Build();
  ASSERT_TRUE(IsSingleType(even));
  EXPECT_TRUE(even.Accepts(Tree::Unary(Word(2, 0))));
  EXPECT_FALSE(even.Accepts(Tree::Unary(Word(3, 0))));
  // The complement contains all odd chains AND all branching a-trees;
  // exchanging a branching tree's subtree with an odd chain's recreates
  // the even chains (e.g. a(a,a) ⟷ a(a(a)) at depth 2 yields a(a)), so
  // the minimal upper approximation collapses to all a-trees.
  DfaXsd complement = *UpperComplement(even);
  EXPECT_TRUE(complement.Accepts(Tree::Unary(Word(3, 0))));
  EXPECT_TRUE(complement.Accepts(Tree::Unary(Word(2, 0))));
  EXPECT_TRUE(complement.Accepts(Tree(0, {Tree(0), Tree(0)})));
}

TEST(EdgeCaseTest, DeepDocuments) {
  SchemaBuilder builder;
  builder.AddType("N", "a", "N?");
  builder.AddStart("N");
  Edtd chains = ReduceEdtd(builder.Build());
  DfaXsd xsd = DfaXsdFromStEdtd(chains);
  Tree deep = Tree::Unary(Word(20000, 0));
  EXPECT_TRUE(xsd.Accepts(deep));
  Tree bad = deep;
  bad.At(TreePath(10000, 0)).children.push_back(Tree(0));  // rank 2 node
  EXPECT_FALSE(xsd.Accepts(bad));
}

TEST(EdgeCaseTest, WideDocuments) {
  SchemaBuilder builder;
  builder.AddType("R", "r", "A*");
  builder.AddType("A", "a", "%");
  builder.AddStart("R");
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(builder.Build()));
  Tree wide(xsd.sigma.Find("r"));
  wide.children.assign(50000, Tree(xsd.sigma.Find("a")));
  EXPECT_TRUE(xsd.Accepts(wide));
  EXPECT_GT(CountXsdByDepth(xsd, {2, 50}, nullptr)->back().ToDouble(), 50.0);
}

TEST(EdgeCaseTest, SharedLabelsAcrossManyContexts) {
  // The same element name under 5 different parents with 5 different
  // content models — stress for the type automaton and minimization.
  SchemaBuilder builder;
  std::string roots;
  for (int i = 0; i < 5; ++i) {
    std::string p = "P" + std::to_string(i);
    std::string x = "X" + std::to_string(i);
    roots += p + " ";
    builder.AddType(p, "p" + std::to_string(i), x);
    // X under P_i allows exactly i x-children.
    std::string content;
    for (int j = 0; j < i; ++j) content += "Leaf ";
    if (content.empty()) content = "%";
    builder.AddType(x, "x", content);
  }
  builder.AddType("Root", "root", roots);
  builder.AddType("Leaf", "leaf", "%");
  builder.AddStart("Root");
  Edtd schema = ReduceEdtd(builder.Build());
  ASSERT_TRUE(IsSingleType(schema));
  DfaXsd xsd = MinimizeXsd(DfaXsdFromStEdtd(schema));
  // No two X-types merge (all content languages differ).
  int x_states = 0;
  for (int q = 1; q < xsd.automaton.num_states(); ++q) {
    if (xsd.state_label[q] == xsd.sigma.Find("x")) ++x_states;
  }
  EXPECT_EQ(x_states, 5);
}

TEST(EdgeCaseTest, MinimizeHandlesCompleteAutomata) {
  // An already-complete DFA with every state final.
  Dfa all = Dfa::AllWords(3);
  EXPECT_EQ(*Minimize(all), all);
  // Determinizing an NFA with no initial states.
  Nfa no_init(2, 2);
  no_init.SetFinal(1);
  Dfa dfa = *Determinize(no_init);
  EXPECT_TRUE(dfa.IsEmpty());
}

}  // namespace
}  // namespace stap
