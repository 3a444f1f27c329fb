#include "stap/automata/inclusion.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "stap/automata/antichain.h"
#include "stap/automata/determinize.h"
#include "stap/automata/state_set_hash.h"
#include "stap/base/check.h"

namespace stap {

namespace {

// Oracle path: BFS over pairs (state set of `nfa`, state of completed
// `dfa`) searching for a pair where the NFA accepts and the DFA does not.
// Returns a shortest witness word, or nullopt when L(nfa) ⊆ L(dfa).
//
// The reachable pairs are at most |2^Q_nfa| x |Q_dfa| in principle; the
// antichain engine replaces this with a |Q_nfa| x |Q_dfa| pair search.
// State sets are hash-interned once; the pair table is keyed by packed
// (set id, dfa state) words.
std::optional<Word> SearchCounterexample(const Nfa& nfa, const Dfa& dfa_in) {
  STAP_CHECK(nfa.num_symbols() == dfa_in.num_symbols());
  const Dfa dfa = dfa_in.Completed();
  const int num_symbols = nfa.num_symbols();

  auto nfa_accepts = [&](const StateSet& set) {
    return std::any_of(set.begin(), set.end(),
                       [&](int q) { return nfa.IsFinal(q); });
  };

  StateSetInterner sets;
  std::unordered_map<uint64_t, int, U64Hash> ids;
  struct Node {
    int set_id;
    int dfa_state;
  };
  std::vector<Node> nodes;  // insertion order doubles as the BFS queue
  std::vector<int> parent;
  std::vector<int> via_symbol;

  auto intern = [&](StateSet&& set, int dfa_state, int from, int symbol) {
    const int set_id = sets.Intern(std::move(set)).first;
    auto [it, inserted] =
        ids.emplace(PackPair(set_id, dfa_state), static_cast<int>(nodes.size()));
    if (inserted) {
      nodes.push_back(Node{set_id, dfa_state});
      parent.push_back(from);
      via_symbol.push_back(symbol);
    }
    return it->second;
  };

  {
    StateSet initial = nfa.initial();
    intern(std::move(initial), dfa.initial(), -1, kNoSymbol);
  }
  StateSet scratch;
  for (size_t id = 0; id < nodes.size(); ++id) {
    const int set_id = nodes[id].set_id;
    const int dfa_state = nodes[id].dfa_state;
    if (nfa_accepts(sets[set_id]) && !dfa.IsFinal(dfa_state)) {
      Word word;
      for (int cur = static_cast<int>(id); parent[cur] >= 0;
           cur = parent[cur]) {
        word.push_back(via_symbol[cur]);
      }
      std::reverse(word.begin(), word.end());
      return word;
    }
    for (int sym = 0; sym < num_symbols; ++sym) {
      nfa.NextInto(sets[set_id], sym, &scratch);
      if (scratch.empty()) continue;  // NFA can never accept from here
      intern(std::move(scratch), dfa.Next(dfa_state, sym),
             static_cast<int>(id), sym);
    }
  }
  return std::nullopt;
}

}  // namespace

// The unbudgeted entry points below pass a null budget, which never
// exhausts, so their results are always OK.
bool DfaIncludedIn(const Dfa& a, const Dfa& b) {
  return *AntichainIncluded(a.ToNfa(), b.ToNfa());
}

StatusOr<bool> NfaIncludedInDfa(const Nfa& nfa, const Dfa& dfa,
                                Budget* budget) {
  return AntichainIncluded(nfa, dfa.ToNfa(), budget);
}

StatusOr<bool> NfaIncludedInNfa(const Nfa& a, const Nfa& b, Budget* budget) {
  return AntichainIncluded(a, b, budget);
}

bool DfaEquivalent(const Dfa& a, const Dfa& b) {
  return DfaIncludedIn(a, b) && DfaIncludedIn(b, a);
}

std::optional<Word> DfaInclusionCounterexample(const Dfa& a, const Dfa& b) {
  return *AntichainInclusionCounterexample(a.ToNfa(), b.ToNfa());
}

std::optional<Word> NfaDfaInclusionCounterexample(const Nfa& nfa,
                                                  const Dfa& dfa) {
  STAP_CHECK(nfa.num_symbols() == dfa.num_symbols());
  return *AntichainInclusionCounterexample(nfa, dfa.ToNfa());
}

bool NfaIncludedInNfaViaSubsets(const Nfa& a, const Nfa& b) {
  STAP_CHECK(a.num_symbols() == b.num_symbols());
  const int num_symbols = a.num_symbols();
  // Pairs (state set of a, state set of b), searching for accept/reject.
  // Both components are interned to dense ids; the visited-pair set is a
  // flat table over packed id pairs.
  StateSetInterner sets_a;
  StateSetInterner sets_b;
  std::unordered_set<uint64_t, U64Hash> seen;
  std::vector<std::pair<int, int>> worklist;
  auto visit = [&](StateSet&& sa, StateSet&& sb) {
    int id_a = sets_a.Intern(std::move(sa)).first;
    int id_b = sets_b.Intern(std::move(sb)).first;
    if (seen.insert(PackPair(id_a, id_b)).second) {
      worklist.emplace_back(id_a, id_b);
    }
  };
  {
    StateSet ia = a.initial();
    StateSet ib = b.initial();
    visit(std::move(ia), std::move(ib));
  }
  auto accepts = [](const Nfa& nfa, const StateSet& set) {
    for (int q : set) {
      if (nfa.IsFinal(q)) return true;
    }
    return false;
  };
  StateSet scratch_a;
  StateSet scratch_b;
  for (size_t processed = 0; processed < worklist.size(); ++processed) {
    const auto [id_a, id_b] = worklist[processed];
    if (accepts(a, sets_a[id_a]) && !accepts(b, sets_b[id_b])) return false;
    for (int sym = 0; sym < num_symbols; ++sym) {
      a.NextInto(sets_a[id_a], sym, &scratch_a);
      if (scratch_a.empty()) continue;
      b.NextInto(sets_b[id_b], sym, &scratch_b);
      visit(std::move(scratch_a), std::move(scratch_b));
    }
  }
  return true;
}

std::optional<Word> NfaDfaInclusionCounterexampleViaSubsets(const Nfa& nfa,
                                                            const Dfa& dfa) {
  return SearchCounterexample(nfa, dfa);
}

StatusOr<bool> NfaIncludedInNfaViaSchemaDeterminize(const Nfa& a, const Nfa& b,
                                                    Budget* budget) {
  STAP_CHECK(a.num_symbols() == b.num_symbols());
  // Determinize the right side under the left side as context: subsets of
  // b reachable only outside L(a)'s prefix closure collapse into the
  // sink. The result agrees with det(b) on every word of L(a) (all its
  // prefixes are a-live), which is exactly the set the inclusion check
  // quantifies over.
  StatusOr<Dfa> guided = DeterminizeUnderSchema(b, a, budget);
  if (!guided.ok()) return guided.status();
  return NfaIncludedInDfa(a, *guided, budget);
}

}  // namespace stap
