// Unit tests for the string-automata substrate (NFA, DFA, determinize,
// minimize, Boolean ops, inclusion).
#include <gtest/gtest.h>

#include <random>

#include "stap/automata/determinize.h"
#include "stap/automata/dfa.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/minimize.h"
#include "stap/automata/nfa.h"
#include "stap/automata/ops.h"

namespace stap {
namespace {

// DFA over {0,1} for words ending in 1.
Dfa EndsInOne() {
  Dfa dfa(2, 2);
  dfa.SetTransition(0, 0, 0);
  dfa.SetTransition(0, 1, 1);
  dfa.SetTransition(1, 0, 0);
  dfa.SetTransition(1, 1, 1);
  dfa.SetFinal(1);
  return dfa;
}

// NFA over {0,1} for words whose n-th symbol from the end is 1.
Nfa NthFromEndIsOne(int n) {
  Nfa nfa(n + 1, 2);
  nfa.AddInitial(0);
  nfa.AddTransition(0, 0, 0);
  nfa.AddTransition(0, 1, 0);
  nfa.AddTransition(0, 1, 1);
  for (int i = 1; i < n; ++i) {
    nfa.AddTransition(i, 0, i + 1);
    nfa.AddTransition(i, 1, i + 1);
  }
  nfa.SetFinal(n);
  return nfa;
}

TEST(StateSetTest, InsertKeepsSortedUnique) {
  StateSet set;
  EXPECT_TRUE(StateSetInsert(set, 5));
  EXPECT_TRUE(StateSetInsert(set, 1));
  EXPECT_FALSE(StateSetInsert(set, 5));
  EXPECT_TRUE(StateSetInsert(set, 3));
  EXPECT_EQ(set, (StateSet{1, 3, 5}));
  EXPECT_TRUE(StateSetContains(set, 3));
  EXPECT_FALSE(StateSetContains(set, 2));
}

TEST(DfaTest, AcceptsBasicWords) {
  Dfa dfa = EndsInOne();
  EXPECT_FALSE(dfa.Accepts({}));
  EXPECT_TRUE(dfa.Accepts({1}));
  EXPECT_TRUE(dfa.Accepts({0, 0, 1}));
  EXPECT_FALSE(dfa.Accepts({1, 0}));
}

TEST(DfaTest, FactoryLanguages) {
  EXPECT_TRUE(Dfa::EmptyLanguage(2).IsEmpty());
  EXPECT_TRUE(Dfa::EpsilonOnly(2).Accepts({}));
  EXPECT_FALSE(Dfa::EpsilonOnly(2).Accepts({0}));
  EXPECT_TRUE(Dfa::AllWords(2).Accepts({0, 1, 1}));
}

TEST(DfaTest, FromWordsBuildsTrie) {
  Dfa dfa = Dfa::FromWords({{0, 1}, {0}, {}}, 2);
  EXPECT_TRUE(dfa.Accepts({}));
  EXPECT_TRUE(dfa.Accepts({0}));
  EXPECT_TRUE(dfa.Accepts({0, 1}));
  EXPECT_FALSE(dfa.Accepts({1}));
  EXPECT_FALSE(dfa.Accepts({0, 1, 1}));
}

TEST(DfaTest, ShortestWordFindsLengthLexSmallest) {
  Dfa dfa = Dfa::FromWords({{1, 1, 1}, {1, 0}, {0, 1}}, 2);
  Word word;
  ASSERT_TRUE(dfa.ShortestWord(&word));
  EXPECT_EQ(word, (Word{0, 1}));
}

TEST(DfaTest, WordsUpToLengthEnumerates) {
  Dfa dfa = EndsInOne();
  std::vector<Word> words = dfa.WordsUpToLength(2);
  EXPECT_EQ(words, (std::vector<Word>{{1}, {0, 1}, {1, 1}}));
}

TEST(DfaTest, CompletedAddsSink) {
  Dfa dfa = Dfa::FromWords({{0}}, 2);
  EXPECT_FALSE(dfa.IsComplete());
  Dfa complete = dfa.Completed();
  EXPECT_TRUE(complete.IsComplete());
  EXPECT_TRUE(complete.Accepts({0}));
  EXPECT_FALSE(complete.Accepts({0, 0}));
}

TEST(DfaTest, TrimmedDropsDeadStates) {
  Dfa dfa(4, 1);
  dfa.SetTransition(0, 0, 1);
  dfa.SetTransition(1, 0, 2);  // 2 is a dead end
  dfa.SetFinal(1);
  // State 3 is unreachable.
  Dfa trimmed = dfa.Trimmed();
  EXPECT_EQ(trimmed.num_states(), 2);
  EXPECT_TRUE(trimmed.Accepts({0}));
  EXPECT_FALSE(trimmed.Accepts({0, 0}));
}

TEST(NfaTest, RunAndAccepts) {
  Nfa nfa = NthFromEndIsOne(2);
  EXPECT_TRUE(nfa.Accepts({1, 0, 1, 0}));
  EXPECT_FALSE(nfa.Accepts({0, 0, 0, 1}));
  EXPECT_FALSE(nfa.Accepts({1}));
}

TEST(NfaTest, TrimmedPreservesLanguage) {
  Nfa nfa = NthFromEndIsOne(2);
  int dead = nfa.AddState();
  nfa.AddTransition(0, 0, dead);  // dead has no path to final
  Nfa trimmed = nfa.Trimmed();
  EXPECT_EQ(trimmed.num_states(), 3);
  EXPECT_TRUE(trimmed.Accepts({1, 0, 1, 0}));
  EXPECT_FALSE(trimmed.Accepts({0, 0}));
}

TEST(NfaTest, IsEmptyDetectsUnreachableFinal) {
  Nfa nfa(2, 1);
  nfa.AddInitial(0);
  nfa.SetFinal(1);
  EXPECT_TRUE(nfa.IsEmpty());
  nfa.AddTransition(0, 0, 1);
  EXPECT_FALSE(nfa.IsEmpty());
}

TEST(DeterminizeTest, MatchesNfaOnAllShortWords) {
  Nfa nfa = NthFromEndIsOne(3);
  Dfa dfa = *Determinize(nfa);
  for (int len = 0; len <= 6; ++len) {
    for (int bits = 0; bits < (1 << len); ++bits) {
      Word word;
      for (int i = 0; i < len; ++i) word.push_back((bits >> i) & 1);
      EXPECT_EQ(dfa.Accepts(word), nfa.Accepts(word));
    }
  }
}

TEST(DeterminizeTest, SubsetBlowupIsExponential) {
  // The classical (a+b)*a(a+b)^(n-1) family needs 2^n deterministic
  // states.
  for (int n = 2; n <= 6; ++n) {
    Dfa dfa = *Minimize(*Determinize(NthFromEndIsOne(n)));
    EXPECT_EQ(dfa.num_states(), 1 << n) << "n=" << n;
  }
}

TEST(MinimizeTest, CanonicalFormsAgree) {
  // Two structurally different automata for "ends in 1".
  Dfa a = EndsInOne();
  Dfa b(4, 2);
  b.SetTransition(0, 0, 2);
  b.SetTransition(0, 1, 1);
  b.SetTransition(1, 0, 2);
  b.SetTransition(1, 1, 3);
  b.SetTransition(2, 0, 0);
  b.SetTransition(2, 1, 3);
  b.SetTransition(3, 0, 2);
  b.SetTransition(3, 1, 1);
  b.SetFinal(1);
  b.SetFinal(3);
  EXPECT_EQ(*Minimize(a), *Minimize(b));
  EXPECT_EQ(Minimize(a)->num_states(), 2);
}

TEST(MinimizeTest, EmptyLanguageIsCanonical) {
  Dfa dead(3, 2);
  dead.SetTransition(0, 0, 1);
  EXPECT_EQ(*Minimize(dead), Dfa::EmptyLanguage(2));
}

TEST(OpsTest, ProductImplementsBooleanOps) {
  Dfa ends1 = EndsInOne();
  Dfa contains0 = Dfa(2, 2);
  contains0.SetTransition(0, 1, 0);
  contains0.SetTransition(0, 0, 1);
  contains0.SetTransition(1, 0, 1);
  contains0.SetTransition(1, 1, 1);
  contains0.SetFinal(1);

  Dfa both = DfaIntersection(ends1, contains0);
  EXPECT_TRUE(both.Accepts({0, 1}));
  EXPECT_FALSE(both.Accepts({1}));
  EXPECT_FALSE(both.Accepts({0}));

  Dfa either = DfaUnion(ends1, contains0);
  EXPECT_TRUE(either.Accepts({1}));
  EXPECT_TRUE(either.Accepts({0}));
  EXPECT_FALSE(either.Accepts({}));

  Dfa diff = DfaDifference(ends1, contains0);
  EXPECT_TRUE(diff.Accepts({1, 1}));
  EXPECT_FALSE(diff.Accepts({0, 1}));
}

TEST(OpsTest, ComplementFlipsMembership) {
  Dfa complement = DfaComplement(EndsInOne());
  EXPECT_TRUE(complement.Accepts({}));
  EXPECT_TRUE(complement.Accepts({1, 0}));
  EXPECT_FALSE(complement.Accepts({1}));
}

TEST(OpsTest, NfaUnionCombines) {
  Nfa u = NfaUnion(NthFromEndIsOne(1), NthFromEndIsOne(3));
  EXPECT_TRUE(u.Accepts({1}));
  EXPECT_TRUE(u.Accepts({1, 0, 0}));
  EXPECT_FALSE(u.Accepts({0, 1, 0}));
}

TEST(OpsTest, HomomorphicImageMergesSymbols) {
  // DFA over {0,1,2} accepting exactly 0·2; map 0,1 -> a(0), 2 -> b(1).
  Dfa dfa = Dfa::FromWords({{0, 2}}, 3);
  Nfa image = HomomorphicImage(dfa, {0, 0, 1}, 2);
  EXPECT_TRUE(image.Accepts({0, 1}));
  EXPECT_FALSE(image.Accepts({0, 0}));
}

TEST(OpsTest, InverseHomomorphismLifts) {
  // L = words over {a,b} ending in b(1); lift via map x->a, y->b, z->a.
  Dfa dfa = EndsInOne();
  Dfa lifted = InverseHomomorphism(dfa, {0, 1, 0}, 3);
  EXPECT_TRUE(lifted.Accepts({0, 1}));   // xy -> ab
  EXPECT_TRUE(lifted.Accepts({2, 1}));   // zy -> ab
  EXPECT_FALSE(lifted.Accepts({1, 2}));  // yz -> ba
}

TEST(InclusionTest, DfaInclusionAndEquivalence) {
  Dfa ends1 = EndsInOne();
  Dfa all = Dfa::AllWords(2);
  EXPECT_TRUE(DfaIncludedIn(ends1, all));
  EXPECT_FALSE(DfaIncludedIn(all, ends1));
  EXPECT_TRUE(DfaEquivalent(ends1, *Minimize(ends1)));

  std::optional<Word> witness = DfaInclusionCounterexample(all, ends1);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(all.Accepts(*witness));
  EXPECT_FALSE(ends1.Accepts(*witness));
}

TEST(InclusionTest, NfaIncludedInDfa) {
  Nfa nfa = NthFromEndIsOne(2);
  Dfa superset = *Determinize(NthFromEndIsOne(2));
  EXPECT_TRUE(*NfaIncludedInDfa(nfa, superset));
  EXPECT_FALSE(*NfaIncludedInDfa(nfa, EndsInOne()));
  std::optional<Word> witness =
      NfaDfaInclusionCounterexample(nfa, EndsInOne());
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(nfa.Accepts(*witness));
  EXPECT_FALSE(EndsInOne().Accepts(*witness));
}

TEST(AlphabetTest, InternAndFind) {
  Alphabet alphabet;
  EXPECT_EQ(alphabet.Intern("book"), 0);
  EXPECT_EQ(alphabet.Intern("title"), 1);
  EXPECT_EQ(alphabet.Intern("book"), 0);
  EXPECT_EQ(alphabet.Find("title"), 1);
  EXPECT_EQ(alphabet.Find("chapter"), kNoSymbol);
  EXPECT_EQ(alphabet.Name(1), "title");
  EXPECT_EQ(alphabet.size(), 2);
}

// Property sweep: Boolean identities on random small DFAs.
class DfaAlgebraTest : public ::testing::TestWithParam<int> {};

Dfa RandomSmallDfa(uint32_t seed) {
  std::mt19937 rng(seed);
  int states = 1 + rng() % 4;
  Dfa dfa(states, 2);
  for (int q = 0; q < states; ++q) {
    for (int a = 0; a < 2; ++a) {
      if (rng() % 4 != 0) {
        dfa.SetTransition(q, a, static_cast<int>(rng() % states));
      }
    }
    if (rng() % 2 == 0) dfa.SetFinal(q);
  }
  return dfa;
}

TEST_P(DfaAlgebraTest, DeMorganAndDoubleComplement) {
  Dfa a = RandomSmallDfa(GetParam() * 2 + 1);
  Dfa b = RandomSmallDfa(GetParam() * 2 + 2);
  // ¬(A ∪ B) == ¬A ∩ ¬B
  Dfa lhs = DfaComplement(DfaUnion(a, b));
  Dfa rhs = DfaIntersection(DfaComplement(a), DfaComplement(b));
  EXPECT_TRUE(DfaEquivalent(lhs, rhs));
  // ¬¬A == A
  EXPECT_TRUE(DfaEquivalent(DfaComplement(DfaComplement(a)), a));
  // A \ B == A ∩ ¬B
  EXPECT_TRUE(DfaEquivalent(DfaDifference(a, b),
                            DfaIntersection(a, DfaComplement(b))));
  // Minimization preserves the language.
  EXPECT_TRUE(DfaEquivalent(*Minimize(a), a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfaAlgebraTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace stap
