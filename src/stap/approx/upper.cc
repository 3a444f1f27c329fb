#include "stap/approx/upper.h"

#include <vector>

#include "stap/automata/determinize.h"
#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"

namespace stap {

StatusOr<DfaXsd> MinimalUpperApproximation(const Edtd& input, Budget* budget) {
  static Counter* const calls = GetCounter("approx.upper_calls");
  static Counter* const merged_states =
      GetCounter("approx.upper_merged_states");
  static Histogram* const latency = GetHistogram("approx.upper_ms");
  calls->Increment();
  ScopedTimer timer(latency);
  ScopedSpan span("approx.upper");
  const int64_t budget_states_before =
      budget != nullptr ? budget->states_charged() : 0;

  // Construction 3.1 phases, each its own span so `stap explain` and the
  // trace timeline show where an adversarial schema spends its states.
  ScopedSpan reduce_span("upper.reduce");
  Edtd edtd = ReduceEdtd(input);
  reduce_span.AddArg("types_in", input.num_types());
  reduce_span.AddArg("types_out", edtd.num_types());
  reduce_span.End();

  ScopedSpan ta_span("upper.type_automaton");
  TypeAutomaton type_automaton = BuildTypeAutomaton(edtd);
  ta_span.AddArg("nfa_states", type_automaton.nfa.num_states());
  ta_span.End();

  // Subset construction on the type automaton. Each materialized subset
  // is either {q_init}, empty (the dead sink), or a set of type states
  // that all carry the same Σ-label.
  ScopedSpan subset_span("upper.subset_construction");
  std::vector<StateSet> subsets;
  StatusOr<Dfa> determinized_or =
      Determinize(type_automaton.nfa, budget, &subsets);
  if (!determinized_or.ok()) return determinized_or.status();
  Dfa determinized = *std::move(determinized_or);
  subset_span.AddArg("subset_states", determinized.num_states());
  subset_span.End();

  ScopedSpan merge_span("upper.merge_contents");
  // Renumber: {q_init} becomes state 0; non-empty subsets get 1..; the
  // empty sink is dropped.
  const int n = determinized.num_states();
  std::vector<int> remap(n, kNoState);
  STAP_CHECK(subsets[determinized.initial()] ==
             StateSet{TypeAutomaton::kInit});
  remap[determinized.initial()] = 0;
  int next_id = 1;
  for (int s = 0; s < n; ++s) {
    if (s == determinized.initial() || subsets[s].empty()) continue;
    remap[s] = next_id++;
  }

  DfaXsd xsd;
  xsd.sigma = edtd.sigma;
  for (int tau : edtd.start_types) {
    StateSetInsert(xsd.start_symbols, edtd.mu[tau]);
  }
  xsd.automaton = Dfa(next_id, edtd.num_symbols());
  xsd.automaton.SetInitial(0);
  xsd.state_label.assign(next_id, kNoSymbol);
  xsd.content.assign(next_id, Dfa::EmptyLanguage(edtd.num_symbols()));

  merged_states->Increment(next_id);
  for (int s = 0; s < n; ++s) {
    if (remap[s] == kNoState) continue;
    for (int a = 0; a < edtd.num_symbols(); ++a) {
      int t = determinized.Next(s, a);
      if (t != kNoState && remap[t] != kNoState) {
        xsd.automaton.SetTransition(remap[s], a, remap[t]);
      }
    }
    if (remap[s] == 0) continue;

    // Label of the merged state and union of the content images.
    int label = kNoSymbol;
    Nfa content_union(0, edtd.num_symbols());
    bool first = true;
    for (int state : subsets[s]) {
      STAP_CHECK(state != TypeAutomaton::kInit);
      int tau = TypeAutomaton::TypeOfState(state);
      if (first) {
        label = edtd.mu[tau];
        content_union =
            HomomorphicImage(edtd.content[tau], edtd.mu, edtd.num_symbols());
        first = false;
      } else {
        STAP_CHECK(label == edtd.mu[tau]);
        content_union = NfaUnion(
            content_union,
            HomomorphicImage(edtd.content[tau], edtd.mu, edtd.num_symbols()));
      }
    }
    STAP_CHECK(!first);  // non-empty subset
    xsd.state_label[remap[s]] = label;
    StatusOr<Dfa> content = MinimizeNfa(content_union, budget);
    if (!content.ok()) return content.status();
    xsd.content[remap[s]] = *std::move(content);
  }
  merge_span.AddArg("merged_states", next_id);
  merge_span.End();
  xsd.CheckWellFormed();
  span.AddArg("xsd_states", xsd.automaton.num_states());
  if (budget != nullptr) {
    span.AddArg("budget_states",
                budget->states_charged() - budget_states_before);
  }
  return xsd;
}

DfaXsd MinimalUpperApproximation(const Edtd& input) {
  StatusOr<DfaXsd> result = MinimalUpperApproximation(input, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

}  // namespace stap
