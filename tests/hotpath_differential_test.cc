// Differential tests for the hash-interned automata kernels: the
// production implementations (determinize, minimize, inclusion) must agree
// with the original std::map-based versions, which are embedded here as
// reference oracles. Determinize discovers subsets in the same order in
// both implementations, so the DFAs must match structurally; Minimize
// numbers Moore classes differently, so both sides are compared after
// canonical renumbering.
//
// Run with --seed=N (or STAP_SEED=N) to explore a different random
// stream; failures print the reproduction flag (see test_seed.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "stap/automata/determinize.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/minimize.h"
#include "stap/automata/state_set_hash.h"
#include "stap/gen/random.h"
#include "test_seed.h"

namespace stap {
namespace {

// ---------------------------------------------------------------------
// Reference kernels: verbatim ports of the pre-interning implementations.
// ---------------------------------------------------------------------

Dfa MapDeterminize(const Nfa& nfa, std::vector<StateSet>* subsets = nullptr) {
  const int num_symbols = nfa.num_symbols();
  std::map<StateSet, int> ids;
  std::vector<StateSet> worklist;

  Dfa dfa(0, num_symbols);
  auto intern = [&](StateSet set) -> int {
    auto [it, inserted] = ids.emplace(std::move(set), dfa.num_states());
    if (inserted) {
      dfa.AddState();
      worklist.push_back(it->first);
      if (subsets != nullptr) subsets->push_back(it->first);
    }
    return it->second;
  };

  int start = intern(nfa.initial());
  dfa.SetInitial(start);

  size_t processed = 0;
  while (processed < worklist.size()) {
    StateSet current = worklist[processed];
    int current_id = ids.at(current);
    ++processed;
    for (int q : current) {
      if (nfa.IsFinal(q)) {
        dfa.SetFinal(current_id);
        break;
      }
    }
    for (int a = 0; a < num_symbols; ++a) {
      int next_id = intern(nfa.Next(current, a));
      dfa.SetTransition(current_id, a, next_id);
    }
  }
  return dfa;
}

Dfa MapCanonicalizeNumbering(const Dfa& dfa) {
  const int num_symbols = dfa.num_symbols();
  std::vector<int> remap(dfa.num_states(), kNoState);
  std::vector<int> order;
  std::deque<int> queue = {dfa.initial()};
  remap[dfa.initial()] = 0;
  order.push_back(dfa.initial());
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    for (int a = 0; a < num_symbols; ++a) {
      int r = dfa.Next(q, a);
      if (r != kNoState && remap[r] == kNoState) {
        remap[r] = static_cast<int>(order.size());
        order.push_back(r);
        queue.push_back(r);
      }
    }
  }
  Dfa result(static_cast<int>(order.size()), num_symbols);
  result.SetInitial(0);
  for (int q : order) {
    if (dfa.IsFinal(q)) result.SetFinal(remap[q]);
    for (int a = 0; a < num_symbols; ++a) {
      int r = dfa.Next(q, a);
      if (r != kNoState && remap[r] != kNoState) {
        result.SetTransition(remap[q], a, remap[r]);
      }
    }
  }
  return result;
}

Dfa MapMinimize(const Dfa& input) {
  Dfa dfa = input.Trimmed().Completed();
  const int n = dfa.num_states();
  const int num_symbols = dfa.num_symbols();

  std::vector<int> classes(n);
  for (int q = 0; q < n; ++q) classes[q] = dfa.IsFinal(q) ? 1 : 0;

  int num_classes = 2;
  while (true) {
    std::map<std::vector<int>, int> signature_ids;
    std::vector<int> next_classes(n);
    for (int q = 0; q < n; ++q) {
      std::vector<int> signature;
      signature.reserve(num_symbols + 1);
      signature.push_back(classes[q]);
      for (int a = 0; a < num_symbols; ++a) {
        signature.push_back(classes[dfa.Next(q, a)]);
      }
      auto [it, inserted] =
          signature_ids.emplace(std::move(signature), signature_ids.size());
      next_classes[q] = it->second;
    }
    int next_num_classes = static_cast<int>(signature_ids.size());
    classes = std::move(next_classes);
    if (next_num_classes == num_classes) break;
    num_classes = next_num_classes;
  }

  Dfa quotient(num_classes, num_symbols);
  quotient.SetInitial(classes[dfa.initial()]);
  for (int q = 0; q < n; ++q) {
    if (dfa.IsFinal(q)) quotient.SetFinal(classes[q]);
    for (int a = 0; a < num_symbols; ++a) {
      quotient.SetTransition(classes[q], a, classes[dfa.Next(q, a)]);
    }
  }

  Dfa trimmed = quotient.Trimmed();
  if (trimmed.IsEmpty()) return Dfa::EmptyLanguage(num_symbols);
  return MapCanonicalizeNumbering(trimmed);
}

std::optional<Word> MapSearchCounterexample(const Nfa& nfa, const Dfa& dfa_in) {
  const Dfa dfa = dfa_in.Completed();
  const int num_symbols = nfa.num_symbols();

  auto nfa_accepts = [&](const StateSet& set) {
    return std::any_of(set.begin(), set.end(),
                       [&](int q) { return nfa.IsFinal(q); });
  };

  using Pair = std::pair<StateSet, int>;
  std::map<Pair, int> ids;
  std::vector<Pair> nodes;
  std::vector<int> parent;
  std::vector<int> via_symbol;
  std::deque<int> queue;

  auto intern = [&](StateSet set, int dfa_state, int from, int symbol) -> int {
    auto [it, inserted] =
        ids.emplace(Pair(std::move(set), dfa_state), nodes.size());
    if (inserted) {
      nodes.push_back(it->first);
      parent.push_back(from);
      via_symbol.push_back(symbol);
      queue.push_back(it->second);
    }
    return it->second;
  };

  intern(nfa.initial(), dfa.initial(), -1, kNoSymbol);
  while (!queue.empty()) {
    int id = queue.front();
    queue.pop_front();
    const auto [set, dfa_state] = nodes[id];
    if (nfa_accepts(set) && !dfa.IsFinal(dfa_state)) {
      Word word;
      for (int cur = id; parent[cur] >= 0; cur = parent[cur]) {
        word.push_back(via_symbol[cur]);
      }
      std::reverse(word.begin(), word.end());
      return word;
    }
    for (int sym = 0; sym < num_symbols; ++sym) {
      StateSet next_set = nfa.Next(set, sym);
      if (next_set.empty()) continue;
      intern(std::move(next_set), dfa.Next(dfa_state, sym), id, sym);
    }
  }
  return std::nullopt;
}

bool MapNfaIncludedInNfa(const Nfa& a, const Nfa& b) {
  const int num_symbols = a.num_symbols();
  std::map<std::pair<StateSet, StateSet>, bool> seen;
  std::vector<std::pair<StateSet, StateSet>> worklist;
  auto visit = [&](StateSet sa, StateSet sb) {
    auto [it, inserted] =
        seen.emplace(std::make_pair(std::move(sa), std::move(sb)), true);
    if (inserted) worklist.push_back(it->first);
  };
  visit(a.initial(), b.initial());
  auto accepts = [](const Nfa& nfa, const StateSet& set) {
    for (int q : set) {
      if (nfa.IsFinal(q)) return true;
    }
    return false;
  };
  size_t processed = 0;
  while (processed < worklist.size()) {
    auto [sa, sb] = worklist[processed];
    ++processed;
    if (accepts(a, sa) && !accepts(b, sb)) return false;
    for (int sym = 0; sym < num_symbols; ++sym) {
      StateSet next_a = a.Next(sa, sym);
      if (next_a.empty()) continue;
      visit(std::move(next_a), b.Next(sb, sym));
    }
  }
  return true;
}

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
    EXPECT_EQ(*NfaIncludedInNfa(a, b), MapNfaIncludedInNfa(a, b));

    Dfa dfa = *Determinize(b);
    std::optional<Word> witness = NfaDfaInclusionCounterexample(a, dfa);
    std::optional<Word> reference = MapSearchCounterexample(a, dfa);
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
    EXPECT_TRUE(MapNfaIncludedInNfa(a, superset));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------
// StateSetInterner unit tests.
// ---------------------------------------------------------------------

TEST(StateSetInternerTest, DedupesAndKeepsStableIds) {
  StateSetInterner interner;
  auto [id0, new0] = interner.Intern(StateSet{1, 2, 3});
  auto [id1, new1] = interner.Intern(StateSet{});
  auto [id2, new2] = interner.Intern(StateSet{1, 2, 3});
  EXPECT_TRUE(new0);
  EXPECT_TRUE(new1);
  EXPECT_FALSE(new2);
  EXPECT_EQ(id0, 0);
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(id2, id0);
  EXPECT_EQ(interner.size(), 2);
  EXPECT_EQ(interner[0], (StateSet{1, 2, 3}));
  EXPECT_TRUE(interner[1].empty());
}

TEST(StateSetInternerTest, ReferencesSurviveTableGrowth) {
  StateSetInterner interner;
  interner.Intern(StateSet{7});
  const StateSet& first = interner[0];
  // Push well past the initial table size to force several rehashes.
  for (int i = 0; i < 500; ++i) {
    auto [id, inserted] = interner.Intern(StateSet{i, i + 1000});
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, i + 1);
  }
  EXPECT_EQ(first, (StateSet{7}));  // deque storage: no reallocation
  for (int i = 0; i < 500; ++i) {
    auto [id, inserted] = interner.Intern(StateSet{i, i + 1000});
    EXPECT_FALSE(inserted);
    EXPECT_EQ(id, i + 1);
  }
}

TEST(StateSetInternerTest, MoveSetsIntoPreservesIdOrder) {
  StateSetInterner interner;
  interner.Intern(StateSet{3});
  interner.Intern(StateSet{1, 4});
  interner.Intern(StateSet{1, 5, 9});
  std::vector<StateSet> sets;
  interner.MoveSetsInto(&sets);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0], (StateSet{3}));
  EXPECT_EQ(sets[1], (StateSet{1, 4}));
  EXPECT_EQ(sets[2], (StateSet{1, 5, 9}));
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
