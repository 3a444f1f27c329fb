#include "stap/automata/minimize.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "stap/automata/determinize.h"
#include "stap/automata/interner.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

// Renumbers the states of a (partial, trimmed) DFA in BFS order, symbols
// ascending. For a minimal DFA this numbering is canonical.
Dfa CanonicalizeNumbering(const Dfa& dfa) {
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

StatusOr<Dfa> Minimize(const Dfa& input, Budget* budget) {
  static Counter* const calls = GetCounter("minimize.calls");
  static Counter* const rounds = GetCounter("minimize.rounds");
  calls->Increment();
  ScopedSpan span("minimize");
  span.AddArg("states_in", input.num_states());
  int64_t rounds_run = 0;

  Dfa dfa = input.Trimmed().Completed();
  const int n = dfa.num_states();
  const int num_symbols = dfa.num_symbols();

  // Moore partition refinement. classes[q] is the block of q.
  std::vector<int> classes(n);
  for (int q = 0; q < n; ++q) classes[q] = dfa.IsFinal(q) ? 1 : 0;

  int num_classes = 2;
  // Signature of a state: (its class, classes of its successors). Each
  // round writes state q's signature into row q of one reused buffer and
  // interns a view of the row, so the refinement loop performs no
  // allocation per state or per class.
  const size_t width = static_cast<size_t>(num_symbols) + 1;
  std::vector<int> signatures(width * n);
  std::vector<int> next_classes(n);
  while (true) {
    // Minimization never grows the state count, so only the wall clock
    // can exhaust the budget; one check per refinement round suffices.
    rounds->Increment();
    ++rounds_run;
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    Interner<IntSpanKey, IntSpanKeyHash> signature_ids(n);
    for (int q = 0; q < n; ++q) {
      int* signature = signatures.data() + width * q;
      signature[0] = classes[q];
      for (int a = 0; a < num_symbols; ++a) {
        signature[a + 1] = classes[dfa.Next(q, a)];
      }
      next_classes[q] = signature_ids.Intern({signature, width}).first;
    }
    int next_num_classes = signature_ids.size();
    std::swap(classes, next_classes);
    if (next_num_classes == num_classes) break;
    num_classes = next_num_classes;
  }

  // Build the quotient automaton.
  Dfa quotient(num_classes, num_symbols);
  quotient.SetInitial(classes[dfa.initial()]);
  for (int q = 0; q < n; ++q) {
    if (dfa.IsFinal(q)) quotient.SetFinal(classes[q]);
    for (int a = 0; a < num_symbols; ++a) {
      quotient.SetTransition(classes[q], a, classes[dfa.Next(q, a)]);
    }
  }

  Dfa trimmed = quotient.Trimmed();
  span.AddArg("rounds", rounds_run);
  span.AddArg("states_out", trimmed.num_states());
  if (trimmed.IsEmpty()) return Dfa::EmptyLanguage(num_symbols);
  return CanonicalizeNumbering(trimmed);
}

StatusOr<Dfa> MinimizeNfa(const Nfa& nfa, Budget* budget, const Nfa* context) {
  StatusOr<Dfa> determinized = Determinize(nfa, budget, context);
  if (!determinized.ok()) return determinized.status();
  return Minimize(*determinized, budget);
}

}  // namespace stap
