// Differential tests for the antichain inclusion engine against the
// map-based subset-product oracles in tests/oracles/inclusion.h.
//
// Both searches are breadth-first, and the antichain's subsumption
// pruning only ever discards newcomers in favor of earlier ⊆-smaller
// pairs (see automata/antichain.cc), so the two sides must agree not just
// on the verdict but on the LENGTH of a shortest counterexample. The
// witness words themselves may differ (BFS layers are visited in
// different orders), so validity is checked semantically.
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "oracles/inclusion.h"
#include "stap/automata/antichain.h"
#include "stap/automata/determinize.h"
#include "stap/gen/random.h"
#include "test_seed.h"

namespace stap {
namespace {

// Oracle for universality: determinize, complete, and BFS for the
// shortest word reaching a non-final state.
std::optional<Word> SubsetUniversalityCounterexample(const Nfa& nfa) {
  Dfa dfa = Determinize(nfa)->Completed();
  const int num_symbols = dfa.num_symbols();
  std::vector<int> parent(dfa.num_states(), -2);
  std::vector<int> via(dfa.num_states(), kNoSymbol);
  std::deque<int> queue = {dfa.initial()};
  parent[dfa.initial()] = -1;
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    if (!dfa.IsFinal(q)) {
      Word word;
      for (int cur = q; parent[cur] >= 0; cur = parent[cur]) {
        word.push_back(via[cur]);
      }
      std::reverse(word.begin(), word.end());
      return word;
    }
    for (int a = 0; a < num_symbols; ++a) {
      int r = dfa.Next(q, a);
      if (parent[r] == -2) {
        parent[r] = q;
        via[r] = a;
        queue.push_back(r);
      }
    }
  }
  return std::nullopt;
}

class AntichainDifferentialTest : public ::testing::TestWithParam<int> {};

// 10 params x 50 rounds = 500 randomized NFA pairs.
constexpr int kRoundsPerParam = 50;

TEST_P(AntichainDifferentialTest, InclusionAgreesWithSubsetOracle) {
  std::mt19937 rng(test::MixSeed(GetParam() * 1000003ull + 17));
  for (int round = 0; round < kRoundsPerParam; ++round) {
    SCOPED_TRACE("param=" + std::to_string(GetParam()) +
                 " round=" + std::to_string(round));
    int sym = 2 + round % 3;
    Nfa a = RandomNfa(&rng, 2 + round % 12, sym, 1 + round % 3);
    Nfa b = RandomNfa(&rng, 2 + round % 10, sym, 1 + round % 3);

    // Verdict agreement with the pair-subset oracle.
    bool included = *AntichainIncluded(a, b);
    EXPECT_EQ(included, NfaIncludedInNfaViaSubsets(a, b));

    // Witness agreement with the determinize-based BFS oracle: same
    // existence, same shortest length, and a semantically valid word.
    std::optional<Word> witness = *AntichainInclusionCounterexample(a, b);
    std::optional<Word> oracle =
        NfaDfaInclusionCounterexampleViaSubsets(a, *Determinize(b));
    ASSERT_EQ(witness.has_value(), oracle.has_value());
    EXPECT_EQ(included, !witness.has_value());
    if (witness.has_value()) {
      EXPECT_EQ(witness->size(), oracle->size());
      EXPECT_TRUE(a.Accepts(*witness));
      EXPECT_FALSE(b.Accepts(*witness));
    }
  }
}

TEST_P(AntichainDifferentialTest, UniversalityAgreesWithSubsetOracle) {
  std::mt19937 rng(test::MixSeed(GetParam() * 7777777ull + 29));
  for (int round = 0; round < kRoundsPerParam; ++round) {
    SCOPED_TRACE("param=" + std::to_string(GetParam()) +
                 " round=" + std::to_string(round));
    int sym = 2 + round % 3;
    // Dense transition tables make universal instances reasonably likely,
    // so both branches of the verdict are exercised.
    Nfa nfa = RandomNfa(&rng, 2 + round % 8, sym, 2 + round % 3);

    std::optional<Word> witness = *AntichainUniversalityCounterexample(nfa);
    std::optional<Word> oracle = SubsetUniversalityCounterexample(nfa);
    ASSERT_EQ(witness.has_value(), oracle.has_value());
    EXPECT_EQ(AntichainUniversal(nfa), !witness.has_value());
    if (witness.has_value()) {
      EXPECT_EQ(witness->size(), oracle->size());
      EXPECT_FALSE(nfa.Accepts(*witness));
    }
  }
}

TEST_P(AntichainDifferentialTest, EquivalenceAgreesWithSubsetOracle) {
  std::mt19937 rng(test::MixSeed(GetParam() * 424243ull + 5));
  for (int round = 0; round < kRoundsPerParam; ++round) {
    SCOPED_TRACE("param=" + std::to_string(GetParam()) +
                 " round=" + std::to_string(round));
    int sym = 2 + round % 3;
    Nfa a = RandomNfa(&rng, 2 + round % 8, sym);
    // Mix fresh pairs with structurally perturbed copies so equivalent
    // instances actually occur.
    Nfa b = (round % 3 == 0) ? a : RandomNfa(&rng, 2 + round % 8, sym);
    bool oracle = NfaIncludedInNfaViaSubsets(a, b) &&
                  NfaIncludedInNfaViaSubsets(b, a);
    EXPECT_EQ(*AntichainEquivalent(a, b), oracle);
  }
}

// Hand-picked edge cases the random sweep is unlikely to cover.
TEST(AntichainEdgeCases, EmptyAndEpsilonLanguages) {
  Nfa empty(1, 2);
  empty.AddInitial(0);  // no finals: empty language
  Nfa eps(1, 2);
  eps.AddInitial(0);
  eps.SetFinal(0);  // accepts exactly the empty word

  EXPECT_TRUE(*AntichainIncluded(empty, eps));
  EXPECT_FALSE(*AntichainIncluded(eps, empty));
  std::optional<Word> w = *AntichainInclusionCounterexample(eps, empty);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->empty());  // the empty word is the shortest witness
  EXPECT_FALSE(AntichainUniversal(eps));
  EXPECT_TRUE(*AntichainEquivalent(empty, empty));
  EXPECT_FALSE(*AntichainEquivalent(empty, eps));
}

TEST(AntichainEdgeCases, UniversalSigmaStar) {
  Nfa all(1, 3);
  all.AddInitial(0);
  all.SetFinal(0);
  for (int a = 0; a < 3; ++a) all.AddTransition(0, a, 0);
  EXPECT_TRUE(AntichainUniversal(all));
  EXPECT_FALSE(AntichainUniversalityCounterexample(all)->has_value());
  Nfa empty(1, 3);
  empty.AddInitial(0);
  EXPECT_TRUE(*AntichainIncluded(empty, all));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AntichainDifferentialTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
