#include "stap/schema/reduce.h"

#include <algorithm>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/base/check.h"

namespace stap {

namespace {

// Drops all transitions on symbols not in `allowed` and trims.
Dfa RestrictToSymbols(const Dfa& dfa, const std::vector<bool>& allowed) {
  Dfa result(dfa.num_states(), dfa.num_symbols());
  if (dfa.num_states() == 0) return result;
  result.SetInitial(dfa.initial());
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) result.SetFinal(q);
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      if (!allowed[a]) continue;
      int r = dfa.Next(q, a);
      if (r != kNoState) result.SetTransition(q, a, r);
    }
  }
  return result.Trimmed();
}

// Renumbers the symbols of `dfa` according to `remap` (old id -> new id or
// kNoSymbol) into an automaton over `new_size` symbols.
Dfa RemapSymbols(const Dfa& dfa, const std::vector<int>& remap, int new_size) {
  Dfa result(std::max(dfa.num_states(), 1), new_size);
  if (dfa.num_states() == 0) return result;
  result.SetInitial(dfa.initial());
  for (int q = 0; q < dfa.num_states(); ++q) {
    if (dfa.IsFinal(q)) result.SetFinal(q);
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      if (remap[a] == kNoSymbol) continue;
      int r = dfa.Next(q, a);
      if (r != kNoState) result.SetTransition(q, remap[a], r);
    }
  }
  return result;
}

}  // namespace

Edtd ReduceEdtd(const Edtd& input) {
  input.CheckWellFormed();
  const int n = input.num_types();

  // Productive types: fixpoint from below. A type is productive if its
  // content language contains a word over productive types.
  std::vector<bool> productive(n, false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int tau = 0; tau < n; ++tau) {
      if (productive[tau]) continue;
      if (!RestrictToSymbols(input.content[tau], productive).IsEmpty()) {
        productive[tau] = true;
        changed = true;
      }
    }
  }

  // Restrict all content models to productive types, then compute
  // reachability from the start types over "occurs in some accepted word".
  std::vector<Dfa> restricted(n);
  for (int tau = 0; tau < n; ++tau) {
    restricted[tau] = RestrictToSymbols(input.content[tau], productive);
  }
  std::vector<bool> reachable(n, false);
  std::vector<int> stack;
  for (int tau : input.start_types) {
    if (productive[tau] && !reachable[tau]) {
      reachable[tau] = true;
      stack.push_back(tau);
    }
  }
  while (!stack.empty()) {
    int tau = stack.back();
    stack.pop_back();
    const Dfa& dfa = restricted[tau];
    // All transitions of the trimmed, restricted DFA are useful, so any
    // transition symbol occurs in some accepted word.
    for (int q = 0; q < dfa.num_states(); ++q) {
      for (int t = 0; t < n; ++t) {
        if (dfa.Next(q, t) != kNoState && !reachable[t]) {
          reachable[t] = true;
          stack.push_back(t);
        }
      }
    }
  }

  // Keep reachable-and-productive types; renumber densely.
  std::vector<int> remap(n, kNoSymbol);
  Alphabet new_types;
  for (int tau = 0; tau < n; ++tau) {
    if (reachable[tau] && productive[tau]) {
      remap[tau] = new_types.Intern(input.types.Name(tau));
    }
  }
  const int new_n = new_types.size();

  Edtd result;
  result.sigma = input.sigma;
  result.types = new_types;
  result.mu.resize(new_n);
  result.content.resize(new_n);
  if (!input.content_source.empty()) result.content_source.resize(new_n);
  for (int tau = 0; tau < n; ++tau) {
    if (remap[tau] == kNoSymbol) continue;
    result.mu[remap[tau]] = input.mu[tau];
    result.content[remap[tau]] =
        *Minimize(RemapSymbols(restricted[tau], remap, new_n));
    if (!input.content_source.empty() &&
        input.content_source[tau] != nullptr) {
      // A source mentioning a dropped (unproductive/unreachable) type
      // substitutes to nullptr: restricting the content language could
      // change it there, so the provenance is no longer trustworthy.
      result.content_source[remap[tau]] =
          Regex::Substitute(input.content_source[tau], remap);
    }
  }
  for (int tau : input.start_types) {
    if (remap[tau] != kNoSymbol) {
      StateSetInsert(result.start_types, remap[tau]);
    }
  }
  result.CheckWellFormed();
  return result;
}

bool IsReduced(const Edtd& edtd) {
  return ReduceEdtd(edtd).num_types() == edtd.num_types();
}

}  // namespace stap
