// Tests for the deterministic-RE upper approximation of content models
// (the [4]-style step the paper's conclusion composes with Section 3).
#include <gtest/gtest.h>

#include <random>

#include "oracles/regex_kernels.h"
#include "stap/automata/inclusion.h"
#include "stap/regex/bkw.h"
#include "stap/regex/dre_approx.h"
#include "stap/regex/glushkov.h"
#include "stap/regex/parser.h"

namespace stap {
namespace {

Dfa Language(const char* text, Alphabet* alphabet) {
  StatusOr<RegexPtr> regex = ParseRegex(text, alphabet);
  EXPECT_TRUE(regex.ok()) << regex.status();
  return *RegexToDfa(**regex, alphabet->size());
}

TEST(DreApproxTest, ExactOnChainLanguages) {
  Alphabet alphabet({"a", "b", "c"});
  for (const char* text :
       {"a", "a?", "a*", "a+ b*", "(a | b)* c", "a? b+ c?", "%"}) {
    Dfa dfa = Language(text, &alphabet);
    RegexPtr approx = ApproximateDre(dfa);
    EXPECT_TRUE(IsOneUnambiguous(*approx, alphabet.size())) << text;
    EXPECT_TRUE(DfaEquivalent(*RegexToDfa(*approx, alphabet.size()), dfa))
        << text << " -> " << approx->ToString(alphabet);
    EXPECT_TRUE(ApproximateDreIsExact(dfa)) << text;
  }
}

TEST(DreApproxTest, SoundSupersetOnNonChainLanguages) {
  Alphabet alphabet({"a", "b", "c"});
  for (const char* text :
       {"a b | b a", "(a b)+", "a b a", "(a | b)* a (a | b)",
        "a (b c)* | b"}) {
    Dfa dfa = Language(text, &alphabet);
    RegexPtr approx = ApproximateDre(dfa);
    EXPECT_TRUE(IsOneUnambiguous(*approx, alphabet.size())) << text;
    // Superset...
    EXPECT_TRUE(*NfaIncludedInDfa(dfa.ToNfa(),
                                  *RegexToDfa(*approx, alphabet.size())))
        << text << " -> " << approx->ToString(alphabet);
  }
  // ...and not exact for genuinely non-chain languages.
  EXPECT_FALSE(ApproximateDreIsExact(Language("a b a", &alphabet)));
}

TEST(DreApproxTest, CyclicPrecedenceCollapsesToOneGroup) {
  // {ab, bc, ca}: precedence a->b->c->a without any direct mutual pair —
  // the transitive closure must still put all three in one group.
  Alphabet alphabet({"a", "b", "c"});
  Dfa dfa = Language("a b | b c | c a", &alphabet);
  RegexPtr approx = ApproximateDre(dfa);
  EXPECT_TRUE(IsOneUnambiguous(*approx, alphabet.size()));
  EXPECT_TRUE(
      *NfaIncludedInDfa(dfa.ToNfa(), *RegexToDfa(*approx, alphabet.size())));
}

TEST(DreApproxTest, EmptyAndEpsilon) {
  EXPECT_EQ(ApproximateDre(Dfa::EmptyLanguage(2))->kind(),
            RegexKind::kEmptySet);
  EXPECT_EQ(ApproximateDre(Dfa::EpsilonOnly(2))->kind(),
            RegexKind::kEpsilon);
}

// Property sweep: for random expressions, the approximation is always a
// deterministic superset, and exact whenever the language already is a
// chain (verified via the exactness probe itself on chain inputs above).
class DreApproxRandomTest : public ::testing::TestWithParam<int> {};

RegexPtr RandomRegex(std::mt19937* rng, int depth) {
  int choice = static_cast<int>((*rng)() % (depth <= 0 ? 2 : 6));
  switch (choice) {
    case 0:
      return Regex::Symbol(static_cast<int>((*rng)() % 3));
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

TEST_P(DreApproxRandomTest, DeterministicSuperset) {
  std::mt19937 rng(GetParam() * 39916801 + 31);
  RegexPtr regex = RandomRegex(&rng, 4);
  Dfa dfa = *RegexToDfa(*regex, 3);
  RegexPtr approx = ApproximateDre(dfa);
  EXPECT_TRUE(IsOneUnambiguous(*approx, 3));
  EXPECT_TRUE(*IsOneUnambiguousLanguage(*RegexToDfa(*approx, 3)));
  EXPECT_TRUE(*NfaIncludedInDfa(dfa.ToNfa(), *RegexToDfa(*approx, 3)))
      << "input DFA states=" << dfa.num_states();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DreApproxRandomTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace stap
