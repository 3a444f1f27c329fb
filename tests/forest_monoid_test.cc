// Tests for monoid forest automata (Section 4.4.1).
#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "oracles/forest_monoid.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

TEST(FiniteMonoidTest, AxiomsCheckedOnHandBuiltExamples) {
  // (Z3, +): identity 0.
  std::vector<int> z3(9);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) z3[a * 3 + b] = (a + b) % 3;
  }
  EXPECT_TRUE(FiniteMonoid(3, 0, z3).CheckAxioms());

  // Broken associativity.
  std::vector<int> broken = z3;
  broken[1 * 3 + 2] = 1;  // 1+2 := 1
  EXPECT_FALSE(FiniteMonoid(3, 0, broken).CheckAxioms());
}

DfaXsd LibraryXsd() {
  SchemaBuilder builder;
  builder.AddType("Lib", "library", "Book*");
  builder.AddType("Book", "book", "Title Chapter?");
  builder.AddType("Title", "title", "%");
  builder.AddType("Chapter", "chapter", "%");
  builder.AddStart("Lib");
  return DfaXsdFromStEdtd(ReduceEdtd(builder.Build()));
}

TEST(MfaTest, MonoidFromXsdSatisfiesTheAxioms) {
  MonoidForestAutomaton mfa = MfaFromXsd(LibraryXsd());
  EXPECT_GE(mfa.monoid().size(), 2);
  EXPECT_TRUE(mfa.monoid().CheckAxioms());
}

TEST(MfaTest, TreeAcceptanceMatchesTheXsd) {
  DfaXsd xsd = LibraryXsd();
  MonoidForestAutomaton mfa = MfaFromXsd(xsd);
  for (const Tree& tree : EnumerateTrees({3, 2, xsd.sigma.size()})) {
    EXPECT_EQ(mfa.AcceptsTree(tree), xsd.Accepts(tree))
        << tree.ToString(xsd.sigma);
  }
}

TEST(MfaTest, ForestEvaluationIsCompositional) {
  DfaXsd xsd = LibraryXsd();
  MonoidForestAutomaton mfa = MfaFromXsd(xsd);
  int lib = xsd.sigma.Find("library"), book = xsd.sigma.Find("book"),
      title = xsd.sigma.Find("title");
  Tree valid_book(book, {Tree(title)});
  Forest two_books = {valid_book, valid_book};
  // A(f1 f2) = A(f1) + A(f2).
  EXPECT_EQ(mfa.EvalForest(two_books),
            mfa.monoid().Compose(mfa.EvalTree(valid_book),
                                 mfa.EvalTree(valid_book)));
  // Multi-tree forests are not documents.
  EXPECT_FALSE(mfa.Accepts(two_books));
  EXPECT_FALSE(mfa.Accepts(Forest{}));
  EXPECT_TRUE(mfa.Accepts(Forest{Tree(lib, {valid_book})}));
}

// EvalTree walks an explicit stack and copies no subtree, so a chain far
// deeper than the call stack allows evaluates in linear time.
TEST(MfaTest, EvaluatesChainsDeeperThanTheCallStack) {
  SchemaBuilder builder;
  builder.AddType("A", "a", "A | B");
  builder.AddType("B", "b", "%");
  builder.AddStart("A");
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(builder.Build()));
  MonoidForestAutomaton mfa = MfaFromXsd(xsd);
  const int a = xsd.sigma.Find("a");
  const int b = xsd.sigma.Find("b");
  constexpr int kDepth = 100000;
  auto chain = [a](int leaf) {
    Tree tree(leaf);
    for (int i = 1; i < kDepth; ++i) {
      Tree next(a);
      next.children.push_back(std::move(tree));
      tree = std::move(next);
    }
    return tree;
  };
  EXPECT_TRUE(mfa.AcceptsTree(chain(b)));
  EXPECT_FALSE(mfa.AcceptsTree(chain(a)));  // the leaf <a> lacks a child
}

// Property: the MFA agrees with the XSD on random schemas and documents.
class MfaRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MfaRandomTest, AgreesWithXsd) {
  std::mt19937 rng(GetParam() * 3571 + 13);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  params.content_breadth = 1;
  DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
  MonoidForestAutomaton mfa = MfaFromXsd(xsd);
  EXPECT_TRUE(mfa.monoid().CheckAxioms());
  for (const Tree& tree : EnumerateTrees({3, 2, 2})) {
    EXPECT_EQ(mfa.AcceptsTree(tree), xsd.Accepts(tree))
        << tree.ToString(xsd.sigma);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MfaRandomTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace stap
