#include "stap/automata/determinize.h"

#include "stap/automata/bitset.h"
#include "stap/automata/interner.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

// Resolved eagerly at static-init time (the registry outlives and
// predates any user, Global() being a function-local static), so the
// serve daemon's /metrics exposition lists them from the first scrape
// even before the first determinization runs.
struct DeterminizeMetrics {
  Counter* calls = GetCounter("determinize.calls");
  Counter* states_created = GetCounter("determinize.states_created");
  Histogram* dfa_states = GetHistogram("determinize.dfa_states");
};

DeterminizeMetrics& Metrics() {
  static DeterminizeMetrics metrics;
  return metrics;
}

const DeterminizeMetrics& g_eager_metrics = Metrics();

}  // namespace

StatusOr<Dfa> Determinize(const Nfa& nfa, Budget* budget,
                          std::vector<StateSet>* subsets) {
  DeterminizeMetrics& metrics = Metrics();
  metrics.calls->Increment();
  ScopedSpan span("determinize");
  span.AddArg("nfa_states", nfa.num_states());

  const int num_symbols = nfa.num_symbols();
  const DenseNfa dense(nfa);
  Interner<DenseStateSet, DenseStateSetHash> interner;

  Dfa dfa(0, num_symbols);
  Status charge_status;
  auto add_state = [&](bool is_final) {
    const int id = dfa.AddState();
    if (is_final) dfa.SetFinal(id);
    metrics.states_created->Increment();
    if (charge_status.ok()) charge_status = Budget::ChargeStates(budget);
  };

  // Subset ids double as DFA state ids and as the worklist: processing
  // state id may discover new subsets, which are appended and processed
  // in turn. Subsets are dense bitsets: the successor computation is an
  // OR of transition rows and interning hashes whole blocks — no sorting,
  // no per-element compares. References into the interner stay valid
  // across inserts.
  interner.Intern(dense.initial());
  add_state(dense.AnyFinal(dense.initial()));
  dfa.SetInitial(0);
  STAP_RETURN_IF_ERROR(charge_status);

  DenseStateSet scratch(nfa.num_states());
  for (int id = 0; id < interner.size(); ++id) {
    const DenseStateSet& current = interner[id];
    for (int a = 0; a < num_symbols; ++a) {
      dense.NextInto(current, a, &scratch);
      auto [next_id, inserted] = interner.Intern(scratch);
      if (inserted) {
        add_state(dense.AnyFinal(scratch));
        STAP_RETURN_IF_ERROR(charge_status);
      }
      dfa.SetTransition(id, a, next_id);
    }
  }

  metrics.dfa_states->Record(dfa.num_states());
  // The same quantity the registry counts: subset states created (the
  // `stap explain` table cross-checks the two).
  span.AddArg("states_created", dfa.num_states());
  if (subsets != nullptr) {
    subsets->reserve(subsets->size() + interner.size());
    for (int id = 0; id < interner.size(); ++id) {
      subsets->push_back(interner[id].ToStateSet());
    }
  }
  return dfa;
}

}  // namespace stap
