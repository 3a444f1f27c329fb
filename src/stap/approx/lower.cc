#include "stap/approx/lower.h"

#include <utility>
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

StatusOr<DfaXsd> SubsetIntersectionLower(const Edtd& input, Budget* budget) {
  static Counter* const calls = GetCounter("approx.lower_calls");
  static Counter* const merged_states =
      GetCounter("approx.lower_merged_states");
  static Histogram* const latency = GetHistogram("approx.lower_ms");
  calls->Increment();
  ScopedTimer timer(latency);
  ScopedSpan span("approx.lower");

  Edtd edtd = ReduceEdtd(input);
  TypeAutomaton type_automaton = BuildTypeAutomaton(edtd);

  // Same subset construction as the upper approximation: the type
  // automaton's reachable subsets with {q_init} as state 0. Only the
  // per-subset content model differs below.
  std::vector<StateSet> subsets;
  StatusOr<Dfa> determinized_or =
      Determinize(type_automaton.nfa, budget, nullptr, &subsets);
  if (!determinized_or.ok()) return determinized_or.status();
  Dfa determinized = *std::move(determinized_or);

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

    // Label of the merged state and intersection of the content images.
    // Every word the intersection admits is admitted by every member's
    // content model, which is what the soundness induction needs.
    int label = kNoSymbol;
    Dfa content_meet;
    bool first = true;
    for (int state : subsets[s]) {
      STAP_CHECK(state != TypeAutomaton::kInit);
      int tau = TypeAutomaton::TypeOfState(state);
      Nfa image =
          HomomorphicImage(edtd.content[tau], edtd.mu, edtd.num_symbols());
      StatusOr<Dfa> image_dfa = Determinize(image, budget);
      if (!image_dfa.ok()) return image_dfa.status();
      if (first) {
        label = edtd.mu[tau];
        content_meet = *std::move(image_dfa);
        first = false;
      } else {
        STAP_CHECK(label == edtd.mu[tau]);
        StatusOr<Dfa> product =
            DfaProduct(content_meet, *image_dfa, BoolOp::kAnd, budget);
        if (!product.ok()) return product.status();
        content_meet = *std::move(product);
      }
    }
    STAP_CHECK(!first);  // non-empty subset
    xsd.state_label[remap[s]] = label;
    StatusOr<Dfa> minimized = Minimize(content_meet.Trimmed(), budget);
    if (!minimized.ok()) return minimized.status();
    xsd.content[remap[s]] = *std::move(minimized);
  }
  xsd.CheckWellFormed();
  span.AddArg("xsd_states", xsd.automaton.num_states());
  return xsd;
}

}  // namespace stap
