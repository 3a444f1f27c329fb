#include "stap/schema/reduce.h"

#include <utility>
#include <vector>

#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
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

// Productive types: the least fixpoint of "the content language contains
// a word over productive types", by one backward worklist over every
// content DFA at once. A content state is live when it reaches a final
// state over productive types: final states are live, and a transition
// s –t→ r makes s live once t is productive and r is live. A type is
// productive once its initial state is live. Each transition is looked
// at once from its target turning live and once from its symbol turning
// productive, so the whole fixpoint is linear in the EDTD.
std::vector<bool> ProductiveTypes(const Edtd& edtd) {
  const int n = edtd.num_types();
  // Content states numbered globally: type tau's state s is offset[tau]+s.
  std::vector<int> offset(n + 1, 0);
  for (int tau = 0; tau < n; ++tau) {
    offset[tau + 1] = offset[tau] + edtd.content[tau].num_states();
  }
  const int num_states = offset[n];
  std::vector<int> initial_of(num_states, kNoSymbol);
  for (int tau = 0; tau < n; ++tau) {
    if (edtd.content[tau].num_states() > 0) {
      initial_of[offset[tau] + edtd.content[tau].initial()] = tau;
    }
  }

  // Every transition (source, symbol, target), bucketed by target and by
  // symbol (counting sort into flat arrays).
  struct Edge {
    int source, symbol, target;
  };
  std::vector<Edge> edges;
  for (int tau = 0; tau < n; ++tau) {
    const Dfa& dfa = edtd.content[tau];
    for (int s = 0; s < dfa.num_states(); ++s) {
      for (int t = 0; t < n; ++t) {
        const int r = dfa.Next(s, t);
        if (r != kNoState) {
          edges.push_back({offset[tau] + s, t, offset[tau] + r});
        }
      }
    }
  }
  auto bucket = [&edges](int num_buckets, auto key) {
    std::vector<int> begin(num_buckets + 1, 0);
    for (const Edge& e : edges) ++begin[key(e) + 1];
    for (int i = 0; i < num_buckets; ++i) begin[i + 1] += begin[i];
    std::vector<int> order(edges.size());
    std::vector<int> fill(begin.begin(), begin.end() - 1);
    for (int i = 0; i < static_cast<int>(edges.size()); ++i) {
      order[fill[key(edges[i])]++] = i;
    }
    return std::pair(std::move(begin), std::move(order));
  };
  const auto [by_target_begin, by_target] =
      bucket(num_states, [](const Edge& e) { return e.target; });
  const auto [by_symbol_begin, by_symbol] =
      bucket(n, [](const Edge& e) { return e.symbol; });

  std::vector<bool> productive(n, false);
  std::vector<bool> live(num_states, false);
  std::vector<int> live_stack, productive_stack;
  auto mark_live = [&](int state) {
    if (live[state]) return;
    live[state] = true;
    live_stack.push_back(state);
    const int tau = initial_of[state];
    if (tau != kNoSymbol && !productive[tau]) {
      productive[tau] = true;
      productive_stack.push_back(tau);
    }
  };
  for (int tau = 0; tau < n; ++tau) {
    const Dfa& dfa = edtd.content[tau];
    for (int s = 0; s < dfa.num_states(); ++s) {
      if (dfa.IsFinal(s)) mark_live(offset[tau] + s);
    }
  }
  while (!live_stack.empty() || !productive_stack.empty()) {
    if (!live_stack.empty()) {
      const int r = live_stack.back();
      live_stack.pop_back();
      for (int i = by_target_begin[r]; i < by_target_begin[r + 1]; ++i) {
        const Edge& e = edges[by_target[i]];
        if (productive[e.symbol]) mark_live(e.source);
      }
      continue;
    }
    const int t = productive_stack.back();
    productive_stack.pop_back();
    for (int i = by_symbol_begin[t]; i < by_symbol_begin[t + 1]; ++i) {
      const Edge& e = edges[by_symbol[i]];
      if (live[e.target]) mark_live(e.source);
    }
  }
  return productive;
}

}  // namespace

Edtd ReduceEdtd(const Edtd& input) {
  input.CheckWellFormed();
  const int n = input.num_types();

  const std::vector<bool> productive = ProductiveTypes(input);

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
