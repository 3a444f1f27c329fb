// Tests for the Section 5 machinery: EDTD(NFA) schemas, Lemma 5.1's
// inclusion test, and the BKW one-unambiguous-language decision.
#include <gtest/gtest.h>

#include <random>

#include "stap/approx/inclusion.h"
#include "stap/automata/inclusion.h"
#include "stap/gen/random.h"
#include "stap/regex/bkw.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"
#include "stap/schema/nfa_schema.h"
#include "stap/schema/reduce.h"
#include "stap/schema/text_format.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

constexpr const char* kNfaFriendly = R"(
start Root
type Root : r -> (A | B)* A
type A    : a -> %
type B    : b -> %
)";

TEST(NfaSchemaTest, ParseAndAccept) {
  StatusOr<EdtdNfa> schema = ParseSchemaNfa(kNfaFriendly);
  ASSERT_TRUE(schema.ok()) << schema.status();
  int r = schema->sigma.Find("r"), a = schema->sigma.Find("a"),
      b = schema->sigma.Find("b");
  EXPECT_TRUE(schema->Accepts(Tree(r, {Tree(a)})));
  EXPECT_TRUE(schema->Accepts(Tree(r, {Tree(b), Tree(a), Tree(a)})));
  EXPECT_FALSE(schema->Accepts(Tree(r, {Tree(a), Tree(b)})));
  EXPECT_FALSE(schema->Accepts(Tree(r)));
  EXPECT_FALSE(schema->Accepts(Tree(a)));
}

TEST(NfaSchemaTest, DeterminizedAgrees) {
  StatusOr<EdtdNfa> schema = ParseSchemaNfa(kNfaFriendly);
  ASSERT_TRUE(schema.ok());
  Edtd determinized = schema->Determinized();
  for (const Tree& tree : EnumerateTrees({2, 3, 3})) {
    EXPECT_EQ(schema->Accepts(tree), determinized.Accepts(tree))
        << tree.ToString(schema->sigma);
  }
}

TEST(NfaSchemaTest, AgreesWithDfaParseSemantics) {
  StatusOr<EdtdNfa> nfa_schema = ParseSchemaNfa(kNfaFriendly);
  StatusOr<Edtd> dfa_schema = ParseSchema(kNfaFriendly);
  ASSERT_TRUE(nfa_schema.ok());
  ASSERT_TRUE(dfa_schema.ok());
  for (const Tree& tree : EnumerateTrees({2, 3, 3})) {
    EXPECT_EQ(nfa_schema->Accepts(tree), dfa_schema->Accepts(tree));
  }
}

TEST(NfaSchemaTest, SingleTypeTestMatchesDfaVariant) {
  StatusOr<EdtdNfa> st = ParseSchemaNfa(kNfaFriendly);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(IsSingleTypeNfa(*st));
  StatusOr<EdtdNfa> not_st = ParseSchemaNfa(
      "start Root\n"
      "type Root : r -> A1 | A2\n"
      "type A1 : a -> %\n"
      "type A2 : a -> A1?\n");
  ASSERT_TRUE(not_st.ok());
  EXPECT_FALSE(IsSingleTypeNfa(*not_st));
}

TEST(NfaSchemaTest, Lemma51InclusionAgreesWithLemma33) {
  // Same instances through both pipelines: NFA contents (Lemma 5.1) and
  // determinized contents (Lemma 3.3).
  const char* sub = R"(
start Root
type Root : r -> A A
type A    : a -> %
)";
  const char* super = R"(
start Root
type Root : r -> (A | B)* A | %
type A    : a -> %
type B    : b -> %
)";
  StatusOr<EdtdNfa> small_nfa = ParseSchemaNfa(sub);
  StatusOr<EdtdNfa> big_nfa = ParseSchemaNfa(super);
  ASSERT_TRUE(small_nfa.ok());
  ASSERT_TRUE(big_nfa.ok());
  // Align by construction: parse the small schema against the super
  // schema's alphabet order instead.
  const char* sub_aligned = R"(
start Root
type Root : r -> A A
type A    : a -> %
type B    : b -> ~
)";
  StatusOr<EdtdNfa> small2 = ParseSchemaNfa(sub_aligned);
  ASSERT_TRUE(small2.ok());
  ASSERT_TRUE(small2->sigma == big_nfa->sigma);
  EXPECT_TRUE(IncludedInSingleTypeNfa(*small2, *big_nfa));
  EXPECT_FALSE(IncludedInSingleTypeNfa(*big_nfa, *small2));
  // Cross-check through the DFA pipeline.
  EXPECT_TRUE(*IncludedInSingleType(ReduceEdtd(small2->Determinized()),
                                    big_nfa->Determinized()));
}

TEST(NfaInclusionTest, NfaIncludedInNfaBasics) {
  Alphabet alphabet({"a", "b"});
  auto compile = [&](const char* text) {
    StatusOr<RegexPtr> regex = ParseRegex(text, &alphabet, false);
    EXPECT_TRUE(regex.ok());
    return *GlushkovAutomaton(**regex, alphabet.size());
  };
  EXPECT_TRUE(*NfaIncludedInNfa(compile("a b"), compile("(a | b)*")));
  EXPECT_TRUE(*NfaIncludedInNfa(compile("(a b)+"), compile("a (b a)* b")));
  EXPECT_FALSE(*NfaIncludedInNfa(compile("a*"), compile("a a*")));
  EXPECT_TRUE(*NfaIncludedInNfa(compile("~"), compile("a")));
}

TEST(BkwTest, KnownOneUnambiguousLanguages) {
  Alphabet alphabet({"a", "b"});
  auto language = [&](const char* text) {
    StatusOr<RegexPtr> regex = ParseRegex(text, &alphabet, false);
    EXPECT_TRUE(regex.ok());
    return *RegexToDfa(**regex, alphabet.size());
  };
  // (a+b)*a equals (b*a)+, which is deterministic.
  EXPECT_TRUE(*IsOneUnambiguousLanguage(language("(a | b)* a")));
  EXPECT_TRUE(*IsOneUnambiguousLanguage(language("a* b a*")));
  EXPECT_TRUE(*IsOneUnambiguousLanguage(language("%")));
  EXPECT_TRUE(*IsOneUnambiguousLanguage(language("~")));
  EXPECT_TRUE(*IsOneUnambiguousLanguage(language("(a b)*")));
  EXPECT_TRUE(*IsOneUnambiguousLanguage(language("b* a (a | b)*")));
}

TEST(BkwTest, KnownNonDeterministicLanguages) {
  Alphabet alphabet({"a", "b"});
  auto language = [&](const char* text) {
    StatusOr<RegexPtr> regex = ParseRegex(text, &alphabet, false);
    EXPECT_TRUE(regex.ok());
    return *RegexToDfa(**regex, alphabet.size());
  };
  // The BKW flagship: "second-to-last symbol is a".
  EXPECT_FALSE(*IsOneUnambiguousLanguage(language("(a | b)* a (a | b)")));
  // And its longer variants (the Theorem 3.2 family's string languages).
  EXPECT_FALSE(
      *IsOneUnambiguousLanguage(language("(a | b)* a (a | b) (a | b)")));
}

// Soundness sweep: the language of any Glushkov-deterministic expression
// must be accepted by the BKW test (no false negatives).
class BkwSoundnessTest : public ::testing::TestWithParam<int> {};

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
      return Regex::Optional(RandomRegex(rng, depth - 1));
  }
}

TEST_P(BkwSoundnessTest, DeterministicExpressionsPass) {
  std::mt19937 rng(GetParam() * 7 + 1);
  int found = 0;
  for (int i = 0; i < 40 && found < 5; ++i) {
    RegexPtr regex = RandomRegex(&rng, 4);
    if (!IsOneUnambiguous(*regex, 2)) continue;
    ++found;
    EXPECT_TRUE(*IsOneUnambiguousLanguage(*RegexToDfa(*regex, 2)));
  }
  EXPECT_GT(found, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BkwSoundnessTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace stap
