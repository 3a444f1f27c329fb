// Unit tests for EDTDs, reduction, and type automata.
#include <gtest/gtest.h>

#include "stap/gen/families.h"
#include "stap/schema/builder.h"
#include "stap/schema/edtd.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

// A DTD as an EDTD with one type per symbol (type ids = symbol ids):
// store -> book*, book -> (title chapter*), title/chapter leaves.
Edtd StoreDtd() {
  Edtd edtd;
  edtd.sigma = Alphabet({"store", "book", "title", "chapter"});
  edtd.types = edtd.sigma;
  edtd.mu = {0, 1, 2, 3};
  edtd.content.assign(4, Dfa::EpsilonOnly(4));
  // store: book*
  Dfa store(1, 4);
  store.SetFinal(0);
  store.SetTransition(0, 1, 0);
  edtd.content[0] = store;
  // book: title chapter*
  Dfa book(2, 4);
  book.SetTransition(0, 2, 1);
  book.SetTransition(1, 3, 1);
  book.SetFinal(1);
  edtd.content[1] = book;
  edtd.start_types = {0};
  edtd.CheckWellFormed();
  return edtd;
}

TEST(EdtdTest, DtdShapedSchemaAcceptsAndRejects) {
  Edtd dtd = StoreDtd();
  // store(book(title), book(title, chapter, chapter))
  Tree good(0, {Tree(1, {Tree(2)}), Tree(1, {Tree(2), Tree(3), Tree(3)})});
  EXPECT_TRUE(dtd.Accepts(good));
  EXPECT_TRUE(dtd.Accepts(Tree(0)));             // empty store
  EXPECT_FALSE(dtd.Accepts(Tree(1, {Tree(2)})));  // wrong root
  Tree bad(0, {Tree(1, {Tree(3)})});             // chapter before title
  EXPECT_FALSE(dtd.Accepts(bad));
  Tree nested(0, {Tree(1, {Tree(2, {Tree(3)})})});  // title not a leaf
  EXPECT_FALSE(dtd.Accepts(nested));
}

// The classic non-single-type EDTD: root a whose single child is b, where
// the b-child's content depends on a *sibling-invisible* choice of type.
Edtd DiningEdtd() {
  SchemaBuilder builder;
  builder.AddType("Root1", "a", "B1");
  builder.AddType("Root2", "a", "B2");
  builder.AddType("B1", "b", "C");
  builder.AddType("B2", "b", "%");
  builder.AddType("C", "c", "%");
  builder.AddStart("Root1");
  builder.AddStart("Root2");
  return builder.Build();
}

TEST(EdtdTest, MembershipUsesTyping) {
  Edtd edtd = DiningEdtd();
  Alphabet& sigma = edtd.sigma;
  int a = sigma.Find("a"), b = sigma.Find("b"), c = sigma.Find("c");
  EXPECT_TRUE(edtd.Accepts(Tree(a, {Tree(b, {Tree(c)})})));
  EXPECT_TRUE(edtd.Accepts(Tree(a, {Tree(b)})));
  EXPECT_FALSE(edtd.Accepts(Tree(a, {Tree(c)})));
  EXPECT_FALSE(edtd.Accepts(Tree(b)));
  EXPECT_FALSE(edtd.Accepts(Tree(a, {Tree(b, {Tree(c), Tree(c)})})));
}

TEST(EdtdTest, PossibleTypesReportsAllAssignments) {
  Edtd edtd = DiningEdtd();
  int b = edtd.sigma.Find("b");
  // A bare b-leaf can be typed B2 (content ε) but not B1.
  std::vector<int> types = edtd.PossibleTypes(Tree(b));
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(edtd.types.Name(types[0]), "B2");
}

TEST(EdtdTest, OccurringTypesComesFromTrimmedContent) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "X | Y Z");  // Z unsatisfiable below
  builder.AddType("X", "b", "%");
  builder.AddType("Y", "b", "%");
  builder.AddType("Z", "c", "Z");  // unproductive: infinite recursion
  builder.AddStart("R");
  Edtd edtd = builder.Build();
  std::vector<int> occurring = edtd.OccurringTypes(0);
  // All three occur syntactically (trimming content DFAs alone does not
  // know about productivity)...
  EXPECT_EQ(occurring.size(), 3u);
  // ...but reduction removes Z and with it the Y Z alternative.
  Edtd reduced = ReduceEdtd(edtd);
  EXPECT_EQ(reduced.num_types(), 2);  // R and X
  EXPECT_EQ(reduced.types.Find("Z"), kNoSymbol);
  EXPECT_EQ(reduced.types.Find("Y"), kNoSymbol);
}

TEST(ReduceTest, PreservesLanguage) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "X | Y Z | X X");
  builder.AddType("X", "b", "%");
  builder.AddType("Y", "b", "%");
  builder.AddType("Z", "c", "Z");
  builder.AddType("Orphan", "c", "%");  // unreachable
  builder.AddStart("R");
  Edtd edtd = builder.Build();
  Edtd reduced = ReduceEdtd(edtd);
  EXPECT_TRUE(IsReduced(reduced));
  for (const Tree& tree : EnumerateTrees({3, 2, 3})) {
    EXPECT_EQ(edtd.Accepts(tree), reduced.Accepts(tree))
        << tree.ToString(edtd.sigma);
  }
}

TEST(ReduceTest, EmptyLanguageGivesZeroTypes) {
  SchemaBuilder builder;
  builder.AddType("R", "a", "R");  // no finite tree
  builder.AddStart("R");
  Edtd reduced = ReduceEdtd(builder.Build());
  EXPECT_EQ(reduced.num_types(), 0);
  EXPECT_TRUE(reduced.start_types.empty());
}

TEST(ReduceTest, IsIdempotent) {
  Edtd reduced = ReduceEdtd(DiningEdtd());
  Edtd twice = ReduceEdtd(reduced);
  EXPECT_EQ(reduced.num_types(), twice.num_types());
  EXPECT_EQ(reduced.start_types, twice.start_types);
  EXPECT_EQ(reduced.mu, twice.mu);
  for (int tau = 0; tau < reduced.num_types(); ++tau) {
    EXPECT_EQ(reduced.content[tau], twice.content[tau]) << tau;
  }
}

TEST(TypeAutomatonTest, Example26Structure) {
  // The worked Example 2.6: τ1 -> τ1 + τ2¹, τ2¹ -> τ2² + ε,
  // τ2² -> τ1 + τ2² + ε, with μ(τ1)=a, μ(τ2¹)=μ(τ2²)=b.
  Edtd edtd = Example26Edtd();
  TypeAutomaton automaton = BuildTypeAutomaton(edtd);
  int a = edtd.sigma.Find("a"), b = edtd.sigma.Find("b");
  int t1 = edtd.types.Find("t1"), t2x = edtd.types.Find("t2x"),
      t2y = edtd.types.Find("t2y");

  auto next = [&](int state, int symbol) {
    return automaton.nfa.Next(state, symbol);
  };
  using S = StateSet;
  int q1 = TypeAutomaton::StateOfType(t1);
  int q2x = TypeAutomaton::StateOfType(t2x);
  int q2y = TypeAutomaton::StateOfType(t2y);
  EXPECT_EQ(next(TypeAutomaton::kInit, a), S{q1});
  EXPECT_EQ(next(TypeAutomaton::kInit, b), S{});
  EXPECT_EQ(next(q1, a), S{q1});
  EXPECT_EQ(next(q1, b), S{q2x});
  EXPECT_EQ(next(q2x, b), S{q2y});
  EXPECT_EQ(next(q2x, a), S{});
  EXPECT_EQ(next(q2y, a), S{q1});
  EXPECT_EQ(next(q2y, b), S{q2y});

  // Labels follow μ.
  EXPECT_EQ(automaton.state_label[q1], a);
  EXPECT_EQ(automaton.state_label[q2x], b);
  EXPECT_EQ(automaton.state_label[TypeAutomaton::kInit], kNoSymbol);
}

TEST(TypeAutomatonTest, TypesAfterTracksAncestorStrings) {
  Edtd edtd = Example26Edtd();
  int a = edtd.sigma.Find("a"), b = edtd.sigma.Find("b");
  EXPECT_EQ(BuildTypeAutomaton(edtd).TypesAfter({a, a, b, b}).size(), 1u);
  EXPECT_EQ(BuildTypeAutomaton(edtd).TypesAfter({b}).size(), 0u);
}

TEST(SingleTypeTest, DetectsViolations) {
  EXPECT_TRUE(IsSingleType(Example26Edtd()));
  EXPECT_FALSE(IsSingleType(DiningEdtd()));  // two a-start types
  // Two b-types inside one content model (the paper's example after
  // Definition 2.4: d(τ) = τ1 + τ2 with μ(τ1) = μ(τ2)).
  SchemaBuilder builder;
  builder.AddType("R", "a", "B1 | B2");
  builder.AddType("B1", "b", "%");
  builder.AddType("B2", "b", "B1?");
  builder.AddStart("R");
  EXPECT_FALSE(IsSingleType(builder.Build()));
}

TEST(SingleTypeTest, DtdsAreAlwaysSingleType) {
  EXPECT_TRUE(IsSingleType(StoreDtd()));
}

}  // namespace
}  // namespace stap
