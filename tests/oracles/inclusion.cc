#include "oracles/inclusion.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "oracles/determinize_schema.h"
#include "oracles/map_kernels.h"
#include "stap/automata/antichain.h"
#include "stap/automata/determinize.h"
#include "stap/automata/inclusion.h"
#include "stap/base/check.h"

namespace stap {

namespace {

bool AnyFinal(const Nfa& nfa, const StateSet& set) {
  return std::any_of(set.begin(), set.end(),
                     [&](int q) { return nfa.IsFinal(q); });
}

}  // namespace

StatusOr<bool> NfaIncludedInNfa(const Nfa& a, const Nfa& b, Budget* budget) {
  return AntichainIncluded(a, b, budget);
}

bool NfaIncludedInNfaViaSubsets(const Nfa& a, const Nfa& b) {
  STAP_CHECK(a.num_symbols() == b.num_symbols());
  using Pair = std::pair<StateSet, StateSet>;
  std::set<Pair> seen;
  std::vector<Pair> worklist;
  auto visit = [&](StateSet sa, StateSet sb) {
    auto [it, inserted] = seen.emplace(std::move(sa), std::move(sb));
    if (inserted) worklist.push_back(*it);
  };
  visit(a.initial(), b.initial());
  for (size_t processed = 0; processed < worklist.size(); ++processed) {
    const auto [sa, sb] = worklist[processed];
    if (AnyFinal(a, sa) && !AnyFinal(b, sb)) return false;
    for (int sym = 0; sym < a.num_symbols(); ++sym) {
      StateSet next_a = MapNext(a, sa, sym);
      if (next_a.empty()) continue;  // a can never accept from here
      visit(std::move(next_a), MapNext(b, sb, sym));
    }
  }
  return true;
}

std::optional<Word> NfaDfaInclusionCounterexampleViaSubsets(
    const Nfa& nfa, const Dfa& dfa_in) {
  STAP_CHECK(nfa.num_symbols() == dfa_in.num_symbols());
  const Dfa dfa = dfa_in.Completed();
  using Pair = std::pair<StateSet, int>;
  std::map<Pair, int> ids;
  std::vector<Pair> nodes;  // insertion order doubles as the BFS queue
  std::vector<int> parent;
  std::vector<int> via_symbol;
  auto intern = [&](StateSet set, int dfa_state, int from, int symbol) {
    auto [it, inserted] =
        ids.emplace(Pair(std::move(set), dfa_state), nodes.size());
    if (inserted) {
      nodes.push_back(it->first);
      parent.push_back(from);
      via_symbol.push_back(symbol);
    }
  };
  intern(nfa.initial(), dfa.initial(), -1, kNoSymbol);
  for (size_t id = 0; id < nodes.size(); ++id) {
    const auto [set, dfa_state] = nodes[id];
    if (AnyFinal(nfa, set) && !dfa.IsFinal(dfa_state)) {
      Word word;
      for (int cur = static_cast<int>(id); parent[cur] >= 0;
           cur = parent[cur]) {
        word.push_back(via_symbol[cur]);
      }
      std::reverse(word.begin(), word.end());
      return word;
    }
    for (int sym = 0; sym < nfa.num_symbols(); ++sym) {
      StateSet next = MapNext(nfa, set, sym);
      if (next.empty()) continue;  // the NFA can never accept from here
      intern(std::move(next), dfa.Next(dfa_state, sym), static_cast<int>(id),
             sym);
    }
  }
  return std::nullopt;
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
