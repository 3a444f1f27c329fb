// Unit tests for the regex module: AST, parser, Glushkov construction,
// one-unambiguity, DFA round trips.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "oracles/regex_kernels.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/minimize.h"
#include "stap/base/budget.h"
#include "stap/regex/ast.h"
#include "stap/regex/from_dfa.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"

namespace stap {
namespace {

RegexPtr Parse(const std::string& text, Alphabet* alphabet) {
  StatusOr<RegexPtr> regex = ParseRegex(text, alphabet);
  EXPECT_TRUE(regex.ok()) << regex.status();
  return *regex;
}

TEST(RegexAstTest, NullabilityFollowsTheGrammar) {
  Alphabet alphabet;
  EXPECT_FALSE(Parse("a", &alphabet)->IsNullable());
  EXPECT_TRUE(Parse("a?", &alphabet)->IsNullable());
  EXPECT_TRUE(Parse("a*", &alphabet)->IsNullable());
  EXPECT_FALSE(Parse("a+", &alphabet)->IsNullable());
  EXPECT_TRUE(Parse("a* b?", &alphabet)->IsNullable());
  EXPECT_FALSE(Parse("a* b", &alphabet)->IsNullable());
  EXPECT_TRUE(Parse("a | %", &alphabet)->IsNullable());
  EXPECT_FALSE(Regex::EmptySet()->IsNullable());
  EXPECT_TRUE(Regex::Epsilon()->IsNullable());
}

TEST(RegexAstTest, FactoriesNormalizeDegenerateCases) {
  EXPECT_EQ(Regex::Concat({})->kind(), RegexKind::kEpsilon);
  EXPECT_EQ(Regex::Union({})->kind(), RegexKind::kEmptySet);
  RegexPtr symbol = Regex::Symbol(0);
  EXPECT_EQ(Regex::Concat({symbol}), symbol);
  EXPECT_EQ(Regex::Union({symbol}), symbol);
}

TEST(RegexParserTest, PrecedenceAndGrouping) {
  Alphabet alphabet;
  RegexPtr regex = Parse("a b | c", &alphabet);
  ASSERT_EQ(regex->kind(), RegexKind::kUnion);
  EXPECT_EQ(regex->children()[0]->kind(), RegexKind::kConcat);
  EXPECT_EQ(regex->children()[1]->kind(), RegexKind::kSymbol);

  RegexPtr grouped = Parse("a (b | c)", &alphabet);
  ASSERT_EQ(grouped->kind(), RegexKind::kConcat);
  EXPECT_EQ(grouped->children()[1]->kind(), RegexKind::kUnion);

  RegexPtr postfix = Parse("a b*", &alphabet);
  ASSERT_EQ(postfix->kind(), RegexKind::kConcat);
  EXPECT_EQ(postfix->children()[1]->kind(), RegexKind::kStar);
}

TEST(RegexParserTest, ErrorsAreReported) {
  Alphabet alphabet;
  EXPECT_FALSE(ParseRegex("a | ", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("(a", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("a )", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("*", &alphabet).ok());
  // Unknown symbols are an error when interning is off.
  Alphabet fixed({"a"});
  EXPECT_FALSE(ParseRegex("b", &fixed, /*intern_new_symbols=*/false).ok());
  EXPECT_TRUE(ParseRegex("a", &fixed, /*intern_new_symbols=*/false).ok());
}

TEST(RegexPrinterTest, RoundTripsThroughParser) {
  Alphabet alphabet;
  for (const char* source :
       {"a", "a b c", "a | b | c", "(a | b) c*", "a+ b? (c a)+", "%",
        "a (b c | %)*"}) {
    RegexPtr regex = Parse(source, &alphabet);
    std::string printed = regex->ToString(alphabet);
    RegexPtr reparsed = Parse(printed, &alphabet);
    EXPECT_TRUE(DfaEquivalent(*RegexToDfa(*regex, alphabet.size()),
                              *RegexToDfa(*reparsed, alphabet.size())))
        << source << " vs " << printed;
  }
}

TEST(GlushkovTest, PositionsAndAcceptance) {
  Alphabet alphabet;
  RegexPtr regex = Parse("(a b)* a", &alphabet);
  Nfa nfa = *GlushkovAutomaton(*regex, alphabet.size());
  EXPECT_EQ(nfa.num_states(), 4);  // 3 positions + initial
  EXPECT_TRUE(nfa.Accepts({0}));
  EXPECT_TRUE(nfa.Accepts({0, 1, 0}));
  EXPECT_FALSE(nfa.Accepts({0, 1}));
  EXPECT_FALSE(nfa.Accepts({}));
}

TEST(GlushkovTest, StateLabeledProperty) {
  Alphabet alphabet;
  RegexPtr regex = Parse("(a | b)* a (a | b)", &alphabet);
  Nfa nfa = *GlushkovAutomaton(*regex, alphabet.size());
  // Every state has all incoming transitions on one symbol.
  std::vector<int> incoming(nfa.num_states(), kNoSymbol);
  for (int q = 0; q < nfa.num_states(); ++q) {
    for (int a = 0; a < nfa.num_symbols(); ++a) {
      for (int r : nfa.Next(q, a)) {
        EXPECT_TRUE(incoming[r] == kNoSymbol || incoming[r] == a);
        incoming[r] = a;
      }
    }
  }
}

TEST(GlushkovTest, OneUnambiguityMatchesKnownExamples) {
  Alphabet alphabet({"a", "b"});
  // (a b)* a: after reading a, the next position is ambiguous between
  // the loop's b-successor... actually the a-positions are the issue.
  EXPECT_FALSE(IsOneUnambiguous(*Parse("(a b)* a", &alphabet),
                                alphabet.size()));
  EXPECT_TRUE(IsOneUnambiguous(*Parse("b* a (a | b)*", &alphabet),
                               alphabet.size()));
  EXPECT_TRUE(IsOneUnambiguous(*Parse("a? b", &alphabet), alphabet.size()));
  // The classical non-deterministic content model (a + b)* a.
  EXPECT_FALSE(IsOneUnambiguous(*Parse("(a | b)* a", &alphabet),
                                alphabet.size()));
}

TEST(RegexToDfaTest, EpsilonAndEmpty) {
  EXPECT_TRUE(RegexToDfa(*Regex::EmptySet(), 2)->IsEmpty());
  Dfa eps = *RegexToDfa(*Regex::Epsilon(), 2);
  EXPECT_TRUE(eps.Accepts({}));
  EXPECT_FALSE(eps.Accepts({0}));
}

TEST(RegexToDfaTest, LiteralWord) {
  Dfa dfa = *RegexToDfa(*Regex::Literal({0, 1, 0}), 2);
  EXPECT_TRUE(dfa.Accepts({0, 1, 0}));
  EXPECT_FALSE(dfa.Accepts({0, 1}));
  EXPECT_EQ(dfa.num_states(), 4);
}

TEST(RepeatTest, FactoryNormalizesDegenerateBounds) {
  RegexPtr a = Regex::Symbol(0);
  EXPECT_EQ(Regex::Repeat(a, 0, Regex::kUnboundedRepeat)->kind(),
            RegexKind::kStar);
  EXPECT_EQ(Regex::Repeat(a, 1, Regex::kUnboundedRepeat)->kind(),
            RegexKind::kPlus);
  EXPECT_EQ(Regex::Repeat(a, 0, 1)->kind(), RegexKind::kOptional);
  EXPECT_EQ(Regex::Repeat(a, 1, 1), a);
  EXPECT_EQ(Regex::Repeat(a, 0, 0)->kind(), RegexKind::kEpsilon);
  RegexPtr counted = Regex::Repeat(a, 2, 4);
  ASSERT_EQ(counted->kind(), RegexKind::kRepeat);
  EXPECT_EQ(counted->repeat_min(), 2);
  EXPECT_EQ(counted->repeat_max(), 4);
  EXPECT_TRUE(counted->ContainsRepeat());
  EXPECT_FALSE(a->ContainsRepeat());
}

TEST(RepeatTest, ParserHandlesCountedBounds) {
  Alphabet alphabet;
  RegexPtr ranged = Parse("a{2,4}", &alphabet);
  ASSERT_EQ(ranged->kind(), RegexKind::kRepeat);
  EXPECT_EQ(ranged->repeat_min(), 2);
  EXPECT_EQ(ranged->repeat_max(), 4);
  RegexPtr exact = Parse("a{3}", &alphabet);
  ASSERT_EQ(exact->kind(), RegexKind::kRepeat);
  EXPECT_EQ(exact->repeat_min(), 3);
  EXPECT_EQ(exact->repeat_max(), 3);
  RegexPtr open = Parse("a{2,}", &alphabet);
  ASSERT_EQ(open->kind(), RegexKind::kRepeat);
  EXPECT_EQ(open->repeat_max(), Regex::kUnboundedRepeat);
  EXPECT_TRUE(Parse("a{0,3}", &alphabet)->IsNullable());
  EXPECT_FALSE(Parse("a{2,4}", &alphabet)->IsNullable());
  EXPECT_TRUE(Parse("(a?){2,4}", &alphabet)->IsNullable());

  EXPECT_FALSE(ParseRegex("a{,3}", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("a{5,2}", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("a{2", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("a{}", &alphabet).ok());
  EXPECT_FALSE(ParseRegex("a{9999999999}", &alphabet).ok());
}

TEST(RepeatTest, PrinterRoundTripsCountedBounds) {
  Alphabet alphabet;
  for (const char* source :
       {"a{2,4}", "a{3}", "(a b){1,2} c", "a{2,} b?", "(a | b){0,2}"}) {
    RegexPtr regex = Parse(source, &alphabet);
    std::string printed = regex->ToString(alphabet);
    RegexPtr reparsed = Parse(printed, &alphabet);
    EXPECT_TRUE(DfaEquivalent(*RegexToDfa(*regex, alphabet.size()),
                              *RegexToDfa(*reparsed, alphabet.size())))
        << source << " vs " << printed;
  }
}

TEST(RepeatTest, GlushkovExpansionMatchesCountedSemantics) {
  Alphabet alphabet;
  RegexPtr ranged = Parse("a{2,4}", &alphabet);
  Dfa dfa = *RegexToDfa(*ranged, alphabet.size());
  for (int k = 0; k <= 6; ++k) {
    EXPECT_EQ(dfa.Accepts(Word(k, 0)), k >= 2 && k <= 4) << "k=" << k;
  }
  RegexPtr open = Parse("(a b){2,}", &alphabet);
  Dfa open_dfa = *RegexToDfa(*open, alphabet.size());
  EXPECT_FALSE(open_dfa.Accepts({0, 1}));
  EXPECT_TRUE(open_dfa.Accepts({0, 1, 0, 1}));
  EXPECT_TRUE(open_dfa.Accepts({0, 1, 0, 1, 0, 1}));
  EXPECT_FALSE(open_dfa.Accepts({0, 1, 0}));
  // A nullable body keeps the lower bound honest: (a?){2,3} accepts ε.
  RegexPtr nullable = Parse("(a?){2,3}", &alphabet);
  Dfa nullable_dfa = *RegexToDfa(*nullable, alphabet.size());
  for (int k = 0; k <= 4; ++k) {
    EXPECT_EQ(nullable_dfa.Accepts(Word(k, 0)), k <= 3) << "k=" << k;
  }
}

TEST(RepeatTest, HostileBoundsExhaustStateBudget) {
  Alphabet alphabet;
  RegexPtr hostile = Parse("a{1,1000000}", &alphabet);
  Budget budget;
  budget.set_max_states(10000);
  StatusOr<Dfa> dfa = RegexToDfa(*hostile, alphabet.size(), &budget);
  ASSERT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.status().code(), StatusCode::kResourceExhausted)
      << dfa.status();
  // The same expression under a sufficient budget still compiles.
  Budget roomy;
  roomy.set_max_states(5000);
  StatusOr<Dfa> small = RegexToDfa(*Parse("a{1,100}", &alphabet),
                                   alphabet.size(), &roomy);
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_TRUE(small->Accepts(Word(100, 0)));
  EXPECT_FALSE(small->Accepts(Word(101, 0)));
}

TEST(DfaToRegexTest, RoundTripsPreserveLanguage) {
  Alphabet alphabet;
  for (const char* source :
       {"a", "a*", "(a | b)* a", "a b | b a", "(a b+)* c?", "%", "~"}) {
    RegexPtr regex = Parse(source, &alphabet);
    alphabet.Intern("a");
    alphabet.Intern("b");
    alphabet.Intern("c");
    Dfa dfa = *RegexToDfa(*regex, alphabet.size());
    RegexPtr back = *DfaToRegex(dfa);
    Dfa dfa2 = *RegexToDfa(*back, alphabet.size());
    EXPECT_TRUE(DfaEquivalent(dfa, dfa2)) << source;
  }
}

// The nodes reachable from `regex`, each counted once however often it
// recurs.
int DistinctNodes(const RegexPtr& regex) {
  std::set<const Regex*> seen;
  std::vector<const Regex*> stack = {regex.get()};
  while (!stack.empty()) {
    const Regex* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    for (const RegexPtr& child : node->children()) stack.push_back(child.get());
  }
  return static_cast<int>(seen.size());
}

TEST(DfaToRegexTest, SubstituteKeepsTheSharedSubexpressions) {
  // State elimination returns a DAG: the (a|b)* a (a|b)^4 subset DFA's
  // expression repeats its subexpressions far more often than it has
  // distinct ones. Substitute rewrites each shared node once, so the
  // image has exactly as many distinct nodes and prints the same text
  // under the renamed alphabet.
  Alphabet alphabet;
  RegexPtr source = Parse("(a | b)* a (a | b) (a | b) (a | b) (a | b)",
                          &alphabet);
  RegexPtr dag = *DfaToRegex(*RegexToDfa(*source, alphabet.size()));
  const int distinct = DistinctNodes(dag);
  ASSERT_LT(distinct, dag->NumNodes());
  Alphabet renamed;
  renamed.Intern("x");
  renamed.Intern("b");
  renamed.Intern("a");
  RegexPtr image = Regex::Substitute(dag, {2, 1});
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(DistinctNodes(image), distinct);
  EXPECT_EQ(image->NumNodes(), dag->NumNodes());
  EXPECT_EQ(image->ToString(renamed), dag->ToString(alphabet));
  // An unmapped symbol still drops the whole expression.
  EXPECT_EQ(Regex::Substitute(dag, {2, kNoSymbol}), nullptr);
}

// Parameterized sweep: Glushkov automaton language equals the derivative
// semantics computed via the minimal DFA for randomized expressions.
class RegexRandomTest : public ::testing::TestWithParam<int> {};

RegexPtr RandomRegex(std::mt19937* rng, int depth) {
  int choice = static_cast<int>((*rng)() % (depth <= 0 ? 2 : 6));
  switch (choice) {
    case 0:
      return Regex::Symbol(static_cast<int>((*rng)() % 2));
    case 1:
      return Regex::Epsilon();
    case 2:
      return Regex::Star(RandomRegex(rng, depth - 1));
    case 3:
      return Regex::Union(
          {RandomRegex(rng, depth - 1), RandomRegex(rng, depth - 1)});
    case 4:
      return Regex::Concat(
          {RandomRegex(rng, depth - 1), RandomRegex(rng, depth - 1)});
    default:
      return Regex::Plus(RandomRegex(rng, depth - 1));
  }
}

TEST_P(RegexRandomTest, GlushkovAgreesWithMinimalDfaOnShortWords) {
  std::mt19937 rng(GetParam());
  RegexPtr regex = RandomRegex(&rng, 4);
  Nfa glushkov = *GlushkovAutomaton(*regex, 2);
  Dfa dfa = *RegexToDfa(*regex, 2);
  for (int len = 0; len <= 5; ++len) {
    for (int bits = 0; bits < (1 << len); ++bits) {
      Word word;
      for (int i = 0; i < len; ++i) word.push_back((bits >> i) & 1);
      EXPECT_EQ(glushkov.Accepts(word), dfa.Accepts(word));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexRandomTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace stap
