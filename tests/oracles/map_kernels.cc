#include "oracles/map_kernels.h"

#include <algorithm>
#include <deque>
#include <iterator>
#include <map>
#include <utility>

namespace stap {

namespace {

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

}  // namespace

StateSet MapNext(const Nfa& nfa, const StateSet& states, int symbol) {
  StateSet result;
  for (int q : states) {
    const StateSet& succ = nfa.Next(q, symbol);
    StateSet merged;
    merged.reserve(result.size() + succ.size());
    std::set_union(result.begin(), result.end(), succ.begin(), succ.end(),
                   std::back_inserter(merged));
    result = std::move(merged);
  }
  return result;
}

Dfa MapDeterminize(const Nfa& nfa, std::vector<StateSet>* subsets) {
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

  dfa.SetInitial(intern(nfa.initial()));
  for (size_t processed = 0; processed < worklist.size(); ++processed) {
    const StateSet current = worklist[processed];
    const int current_id = static_cast<int>(processed);
    for (int q : current) {
      if (nfa.IsFinal(q)) {
        dfa.SetFinal(current_id);
        break;
      }
    }
    for (int a = 0; a < num_symbols; ++a) {
      dfa.SetTransition(current_id, a, intern(MapNext(nfa, current, a)));
    }
  }
  return dfa;
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

}  // namespace stap
