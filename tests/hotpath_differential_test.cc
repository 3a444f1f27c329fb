// Differential tests for the hash-interned automata kernels: the
// production implementations (determinize, minimize, inclusion) must agree
// with the original std::map-based versions in tests/oracles. Determinize
// discovers subsets in the same order in both implementations, so the
// DFAs must match structurally; Minimize numbers Moore classes
// differently, so both sides are compared after canonical renumbering.
// The Interner those kernels share is unit-tested at the end.
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag (see test_seed.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "oracles/inclusion.h"
#include "oracles/map_kernels.h"
#include "stap/automata/bitset.h"
#include "stap/automata/determinize.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/interner.h"
#include "stap/automata/minimize.h"
#include "stap/gen/random.h"
#include "test_seed.h"

namespace stap {
namespace {

// ---------------------------------------------------------------------
// Differential properties over random NFAs.
// ---------------------------------------------------------------------

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, DeterminizeMatchesMapReference) {
  std::mt19937 rng(test::MixSeed(GetParam() * 2654435761ull + 97));
  for (int round = 0; round < 20; ++round) {
    int n = 2 + round % 14;
    int sym = 2 + round % 4;
    Nfa nfa = RandomNfa(&rng, n, sym, 2 + round % 3);
    std::vector<StateSet> subsets;
    std::vector<StateSet> map_subsets;
    Dfa hashed = *Determinize(nfa, nullptr, nullptr, &subsets);
    Dfa reference = MapDeterminize(nfa, &map_subsets);
    // Both implementations assign subset ids in discovery order (BFS over
    // ids, symbols ascending), so the results agree structurally.
    EXPECT_EQ(hashed, reference);
    EXPECT_EQ(subsets, map_subsets);
  }
}

TEST_P(DifferentialTest, MinimizeMatchesMapReference) {
  std::mt19937 rng(test::MixSeed(GetParam() * 40503ull + 2166136261ull));
  for (int round = 0; round < 20; ++round) {
    Nfa nfa = RandomNfa(&rng, 2 + round % 12, 2 + round % 3);
    Dfa dfa = *Determinize(nfa);
    // Both sides end in a canonical BFS numbering, so structural equality
    // is language equality here.
    EXPECT_EQ(*Minimize(dfa), MapMinimize(dfa));
  }
}

TEST_P(DifferentialTest, InclusionAgreesWithMapReference) {
  std::mt19937 rng(test::MixSeed(GetParam() * 314159ull + 2718281));
  for (int round = 0; round < 20; ++round) {
    int sym = 2 + round % 3;
    Nfa a = RandomNfa(&rng, 2 + round % 10, sym);
    Nfa b = RandomNfa(&rng, 2 + round % 8, sym);
    EXPECT_EQ(*NfaIncludedInNfa(a, b), NfaIncludedInNfaViaSubsets(a, b));

    Dfa dfa = *Determinize(b);
    std::optional<Word> witness = NfaDfaInclusionCounterexample(a, dfa);
    std::optional<Word> reference =
        NfaDfaInclusionCounterexampleViaSubsets(a, dfa);
    ASSERT_EQ(witness.has_value(), reference.has_value());
    if (witness.has_value()) {
      // Both searches are breadth-first, so they agree on the length of a
      // shortest counterexample (the words themselves may differ when the
      // BFS layers are visited in different orders).
      EXPECT_EQ(witness->size(), reference->size());
      EXPECT_TRUE(a.Accepts(*witness));
      EXPECT_FALSE(dfa.Accepts(*witness));
    }
    EXPECT_EQ(*NfaIncludedInDfa(a, dfa), !witness.has_value());

    // A strict superset of `a` makes inclusion hold, forcing both
    // searches through the whole reachable pair space (no early exit).
    Nfa superset = a;
    superset.SetFinal(0);
    for (int q = 0; q < superset.num_states(); ++q) {
      superset.AddTransition(q, q % sym, (q + 1) % superset.num_states());
    }
    EXPECT_TRUE(*NfaIncludedInNfa(a, superset));
    EXPECT_TRUE(NfaIncludedInNfaViaSubsets(a, superset));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Interner unit tests, over both key types the kernels intern.
// ---------------------------------------------------------------------

struct VectorKeys {
  using Key = std::vector<int>;
  using Hash = IntVectorHash;
  static Key Make(int i) { return {i, i + 1000}; }
};

struct DenseKeys {
  using Key = DenseStateSet;
  using Hash = DenseStateSetHash;
  static Key Make(int i) {
    DenseStateSet set(2048);
    set.Add(i);
    set.Add(i + 1000);
    return set;
  }
};

// Sends every key to the same probe chain, so only key equality can tell
// keys apart.
struct ConstantHash {
  template <typename Key>
  uint64_t operator()(const Key&) const {
    return 0x5eed;
  }
};

template <typename Keys>
class InternerTest : public ::testing::Test {};

using KeyKinds = ::testing::Types<VectorKeys, DenseKeys>;
TYPED_TEST_SUITE(InternerTest, KeyKinds);

TYPED_TEST(InternerTest, IdsAreDenseInInsertionOrder) {
  Interner<typename TypeParam::Key, typename TypeParam::Hash> interner;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(interner.Intern(TypeParam::Make(i)), std::make_pair(i, true));
  }
  for (int i = 9; i >= 0; --i) {
    EXPECT_EQ(interner.Intern(TypeParam::Make(i)), std::make_pair(i, false));
  }
  ASSERT_EQ(interner.size(), 10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(interner[i], TypeParam::Make(i));
}

TYPED_TEST(InternerTest, HitLeavesTheArgumentIntact) {
  Interner<typename TypeParam::Key, typename TypeParam::Hash> interner;
  interner.Intern(TypeParam::Make(3));
  typename TypeParam::Key scratch = TypeParam::Make(3);
  EXPECT_EQ(interner.Intern(std::move(scratch)), std::make_pair(0, false));
  // A hit must not consume the rvalue argument.
  EXPECT_EQ(scratch, TypeParam::Make(3));
  const typename TypeParam::Key copy = TypeParam::Make(4);
  EXPECT_EQ(interner.Intern(copy), std::make_pair(1, true));
  EXPECT_EQ(copy, TypeParam::Make(4));
}

TYPED_TEST(InternerTest, ReferencesSurviveTableGrowth) {
  Interner<typename TypeParam::Key, typename TypeParam::Hash> interner;
  interner.Intern(TypeParam::Make(0));
  const typename TypeParam::Key& first = interner[0];
  // 500 keys grow the 64-slot table four times (at 45, 90, 180 and 359
  // keys under the 0.7 load factor).
  for (int i = 1; i < 500; ++i) {
    EXPECT_EQ(interner.Intern(TypeParam::Make(i)), std::make_pair(i, true));
  }
  EXPECT_EQ(&interner[0], &first);  // deque storage: never relocated
  EXPECT_EQ(first, TypeParam::Make(0));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(interner.Intern(TypeParam::Make(i)), std::make_pair(i, false));
  }
}

TYPED_TEST(InternerTest, ConstantHashKeepsDistinctKeysApart) {
  Interner<typename TypeParam::Key, ConstantHash> interner;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.Intern(TypeParam::Make(i)), std::make_pair(i, true));
  }
  ASSERT_EQ(interner.size(), 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.Intern(TypeParam::Make(i)), std::make_pair(i, false));
    EXPECT_EQ(interner[i], TypeParam::Make(i));
  }
}

TEST(StateSetHashTest, OrderSensitiveAndConsistent) {
  IntVectorHash hash;
  std::vector<int> v1 = {1, 2, 3};
  std::vector<int> v2 = {1, 2, 3};
  std::vector<int> v3 = {3, 2, 1};
  EXPECT_EQ(hash(v1), hash(v2));
  EXPECT_NE(hash(v1), hash(v3));  // astronomically unlikely to collide
  EXPECT_NE(hash(std::vector<int>{}), hash(std::vector<int>{0}));
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  stap::test::InitTestSeed(&argc, argv);
  return RUN_ALL_TESTS();
}
