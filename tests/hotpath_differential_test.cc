// Differential tests for the hash-interned automata kernels: the
// production implementations (determinize, minimize, inclusion) must agree
// with the original std::map-based versions in tests/oracles. Determinize
// discovers subsets in the same order in both implementations, so the
// DFAs must match structurally; Minimize refines with Hopcroft's
// worklist and the oracle with Moore rounds, so both sides are compared
// after canonical renumbering. Minimize also meets the oracle on counted
// chains, partial DFAs with dead and unreachable states and the
// degenerate DFAs, and the refinement kernel meets a naive fixpoint on
// arbitrary initial partitions and stays within n·⌈log₂ n⌉ splitters.
// The Interner those kernels share is unit-tested at the end.
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag (see test_seed.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
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
#include "stap/base/metrics.h"
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
    Dfa hashed = *Determinize(nfa, nullptr, &subsets);
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

// A random partial DFA: each transition exists with probability
// density/100, so some states are unreachable and, when a state's
// transitions all loop back or are missing and it is not final, dead.
Dfa RandomPartialDfa(std::mt19937* rng, int num_states, int num_symbols,
                     int density, int final_percent) {
  Dfa dfa(num_states, num_symbols);
  for (int q = 0; q < num_states; ++q) {
    if (static_cast<int>((*rng)() % 100) < final_percent) dfa.SetFinal(q);
    for (int a = 0; a < num_symbols; ++a) {
      if (static_cast<int>((*rng)() % 100) < density) {
        dfa.SetTransition(q, a, static_cast<int>((*rng)() % num_states));
      }
    }
  }
  return dfa;
}

TEST_P(DifferentialTest, MinimizeMatchesMapReferenceOnPartialDfas) {
  std::mt19937 rng(test::MixSeed(GetParam() * 7919ull + 104729));
  for (int round = 0; round < 20; ++round) {
    const int n = 1 + round % 17;
    const int sym = 1 + round % 4;
    Dfa dfa = RandomPartialDfa(&rng, n, sym, 20 + 15 * (round % 5),
                               10 + 20 * (round % 4));
    // A state no transition enters, with transitions out and no way to
    // be reached: Minimize must drop it like the oracle does.
    const int orphan = dfa.AddState();
    dfa.SetFinal(orphan);
    for (int a = 0; a < sym; ++a) dfa.SetTransition(orphan, a, 0);
    // A dead state that live states enter.
    const int dead = dfa.AddState();
    for (int a = 0; a < sym; ++a) dfa.SetTransition(dead, a, dead);
    dfa.SetTransition(0, static_cast<int>(rng() % sym), dead);
    EXPECT_EQ(*Minimize(dfa), MapMinimize(dfa)) << dfa.ToString();
  }
}

// The coarsest stable refinement computed naively: Moore-style rounds of
// (block, successor blocks) signatures, a missing transition as -1, until
// the number of blocks stops growing. Blocks are renumbered by least
// state, as RefinePartition numbers them.
std::vector<int> NaiveRefinement(const Dfa& dfa, std::vector<int> block) {
  const int n = dfa.num_states();
  int num_blocks = -1;
  while (true) {
    std::map<std::vector<int>, int> ids;
    std::vector<int> next(n);
    for (int q = 0; q < n; ++q) {
      std::vector<int> signature = {block[q]};
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        const int r = dfa.Next(q, a);
        signature.push_back(r == kNoState ? -1 : block[r]);
      }
      next[q] = ids.emplace(signature, static_cast<int>(ids.size()))
                    .first->second;
    }
    block = std::move(next);
    if (static_cast<int>(ids.size()) == num_blocks) break;
    num_blocks = static_cast<int>(ids.size());
  }
  std::vector<int> renumber(n, -1);
  int count = 0;
  for (int& b : block) {
    if (renumber[b] < 0) renumber[b] = count++;
    b = renumber[b];
  }
  return block;
}

TEST_P(DifferentialTest, RefinePartitionMatchesNaiveRefinement) {
  std::mt19937 rng(test::MixSeed(GetParam() * 15485863ull + 32452843));
  for (int round = 0; round < 60; ++round) {
    const int n = 1 + round % 37;
    const int sym = 1 + round % 4;
    const Dfa dfa = RandomPartialDfa(&rng, n, sym, 30 + 10 * (round % 7), 0);
    // Arbitrary initial blocks, some of their ids unused.
    const int num_blocks = 1 + round % 6;
    std::vector<int> block(n);
    for (int& b : block) b = static_cast<int>(rng() % num_blocks);
    const std::vector<int> expected = NaiveRefinement(dfa, block);
    StatusOr<int> count = RefinePartition(dfa, num_blocks, &block, nullptr);
    ASSERT_TRUE(count.ok()) << count.status();
    EXPECT_EQ(block, expected) << dfa.ToString();
    EXPECT_EQ(*count, 1 + *std::max_element(expected.begin(), expected.end()));
  }
}

// A popped splitter can split while its own predecessors are marked.
// Every later symbol must still take the preimage of the block as it was
// popped, not of the part that kept its id: on this DFA a kernel that
// reads the live block ends with 5 blocks instead of 6.
TEST(RefinePartitionTest, PreimagesUseTheSplitterAsPopped) {
  const int delta[6][2] = {{4, 2}, {3, 3}, {1, 2}, {3, 1}, {0, 2}, {5, 5}};
  Dfa dfa(6, 2);
  for (int q = 0; q < 6; ++q) {
    for (int a = 0; a < 2; ++a) dfa.SetTransition(q, a, delta[q][a]);
  }
  std::vector<int> block = {0, 0, 0, 1, 1, 1};
  const std::vector<int> expected = NaiveRefinement(dfa, block);
  StatusOr<int> count = RefinePartition(dfa, 2, &block, nullptr);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(block, expected);
  EXPECT_EQ(*count, 1 + *std::max_element(expected.begin(), expected.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// Minimize on counted chains and degenerate DFAs.
// ---------------------------------------------------------------------

// The DFA of x{lo,hi}, with x the union of the first `width` symbols of
// a `num_symbols`-letter alphabet: state i moves to i + 1 on each of
// them, and states lo..hi are final. It is minimal (state i accepts the
// lengths lo − i .. hi − i), which is how an XSD's maxOccurs reaches
// Minimize.
Dfa CountedChain(int lo, int hi, int width, int num_symbols) {
  Dfa dfa(hi + 1, num_symbols);
  for (int i = 0; i <= hi; ++i) {
    if (i >= lo) dfa.SetFinal(i);
    for (int a = 0; i < hi && a < width; ++a) dfa.SetTransition(i, a, i + 1);
  }
  return dfa;
}

// An equivalent DFA with every state doubled: each state gets a twin of
// the same finality, and every transition enters the original target or
// its twin at random. Minimization has to merge each pair back.
Dfa WithTwins(const Dfa& dfa, std::mt19937* rng) {
  const int n = dfa.num_states();
  Dfa result(2 * n, dfa.num_symbols());
  result.SetInitial(dfa.initial());
  for (int q = 0; q < 2 * n; ++q) {
    if (dfa.IsFinal(q % n)) result.SetFinal(q);
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      const int r = dfa.Next(q % n, a);
      if (r != kNoState) result.SetTransition(q, a, r + n * ((*rng)() % 2));
    }
  }
  return result;
}

TEST(MinimizeKernelTest, CountedChainsMatchMapReference) {
  std::mt19937 rng(test::MixSeed(0xC4A1));
  struct Chain {
    int lo, hi, width, num_symbols;
  };
  for (const Chain& c : std::vector<Chain>{{0, 1, 1, 1},
                                           {1, 1, 1, 1},
                                           {2, 5, 1, 3},
                                           {0, 64, 2, 3},
                                           {64, 64, 1, 2},
                                           {1, 500, 3, 3},
                                           {250, 500, 1, 2},
                                           {1, 2000, 1, 1},
                                           {0, 2000, 2, 3}}) {
    SCOPED_TRACE(::testing::Message() << "x{" << c.lo << "," << c.hi
                                      << "} width " << c.width << " of "
                                      << c.num_symbols);
    const Dfa chain = CountedChain(c.lo, c.hi, c.width, c.num_symbols);
    const Dfa minimal = *Minimize(chain);
    EXPECT_EQ(minimal.num_states(), c.hi + 1);
    EXPECT_EQ(minimal, MapMinimize(chain));
    if (c.hi <= 500) {
      const Dfa twins = WithTwins(chain, &rng);
      EXPECT_EQ(*Minimize(twins), minimal);
      EXPECT_EQ(MapMinimize(twins), minimal);
    }
  }
}

TEST(MinimizeKernelTest, DegenerateDfasMatchMapReference) {
  std::mt19937 rng(test::MixSeed(0xDE6E));
  std::vector<Dfa> inputs = {Dfa(), Dfa(1, 0), Dfa::EpsilonOnly(0)};
  for (int sym = 1; sym <= 3; ++sym) {
    inputs.push_back(Dfa::EmptyLanguage(sym));
    inputs.push_back(Dfa::EpsilonOnly(sym));
    inputs.push_back(Dfa::AllWords(sym));
    // All-final DFAs: one initial block, split only by missing
    // transitions.
    for (int round = 0; round < 4; ++round) {
      inputs.push_back(RandomPartialDfa(&rng, 2 + 3 * round, sym, 60, 100));
    }
    // Only unreachable states are final: the empty language again.
    Dfa unreachable(3, sym);
    unreachable.SetTransition(0, 0, 0);
    unreachable.SetFinal(2);
    inputs.push_back(unreachable);
  }
  for (const Dfa& dfa : inputs) {
    const Dfa minimal = *Minimize(dfa);
    EXPECT_EQ(minimal, MapMinimize(dfa)) << dfa.ToString();
    if (dfa.IsEmpty()) {
      EXPECT_EQ(minimal, Dfa::EmptyLanguage(dfa.num_symbols()));
    }
  }
  for (int sym = 1; sym <= 3; ++sym) {
    EXPECT_EQ(*Minimize(Dfa::EpsilonOnly(sym)), Dfa::EpsilonOnly(sym));
    EXPECT_EQ(*Minimize(Dfa::AllWords(sym)), Dfa::AllWords(sym));
  }
}

// A deterministic complexity guard. The Moore oracle needs one round per
// state of the x{1,n} chain (each round separates one more state by its
// distance to the end), O(n²) in all; Hopcroft's smaller-half rule
// bounds the splitter pops by n·⌈log₂ n⌉.
TEST(MinimizeKernelTest, ChainSplittersStayWithinNLogN) {
  const Dfa chain = CountedChain(1, 4096, 1, 1);
  const int n = chain.num_states();
  int log2n = 0;
  while ((int64_t{1} << log2n) < n) ++log2n;
  std::vector<int> block(n);
  for (int q = 0; q < n; ++q) block[q] = chain.IsFinal(q) ? 1 : 0;
  int64_t splitters = 0;
  StatusOr<int> count =
      RefinePartition(chain, 2, &block, nullptr, &splitters);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(*count, n);  // the chain is minimal
  EXPECT_GE(splitters, 1);
  EXPECT_LE(splitters, int64_t{n} * log2n);

  Counter* const counter = GetCounter("minimize.splitters");
  const int64_t before = counter->value();
  EXPECT_EQ(Minimize(chain)->num_states(), n);
  EXPECT_EQ(counter->value() - before, splitters);
}


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
