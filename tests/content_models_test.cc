// Tests for the Section 5 content-model machinery: NFA inclusion and the
// BKW one-unambiguous-language decision.
#include <gtest/gtest.h>

#include <random>

#include "oracles/inclusion.h"
#include "stap/automata/inclusion.h"
#include "stap/regex/bkw.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"

namespace stap {
namespace {

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
