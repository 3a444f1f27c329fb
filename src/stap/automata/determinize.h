// Subset construction, dense and schema-guided.
//
// The dense path explores every reachable subset of the NFA. The
// schema-guided path (after Niehren, Sakho & Al Serhali, "Schema-Based
// Automata Determinization", PAPERS.md) runs the subset construction
// jointly with a *context automaton*: states are pairs
// (context subset, NFA subset), and a successor whose context half is
// empty can never be reached by any word the ambient schema admits, so
// the pair collapses into one shared dead sink instead of spawning a
// fresh subset. Over schema-constrained content models most of the 2^n
// dense subsets are exactly such unreachable states.
//
// Contract of the schema-guided result (see docs/ALGORITHMS.md):
//  * For every word w all of whose prefixes are live in the context
//    (non-empty context reach set), the result accepts w iff the NFA
//    does. In particular, if L(context) ⊇ L(nfa), the result accepts
//    exactly L(nfa) — pruning is then a pure representation win.
//  * Words with a dead prefix are rejected (routed to the sink), so
//    L(result) ⊆ L(nfa) always, and L(result) ∩ L(context) =
//    L(nfa) ∩ L(context) for any context.
#ifndef STAP_AUTOMATA_DETERMINIZE_H_
#define STAP_AUTOMATA_DETERMINIZE_H_

#include <cstdint>
#include <vector>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// Determinizes `nfa` by the standard subset construction, exploring only
// reachable subsets. Every DFA state created charges the budget, so the
// exponential families (Theorem 3.2) fail with kResourceExhausted in
// bounded time instead of exhausting memory; a null budget is unlimited.
// If `subsets` is non-null it receives, for each DFA state, the NFA state
// set it denotes (the empty set is the dead sink, created only when
// reachable). The result is complete by construction.
StatusOr<Dfa> Determinize(const Nfa& nfa, Budget* budget = nullptr,
                          std::vector<StateSet>* subsets = nullptr);

// Construction-time observability of a schema-guided run. The registry
// counters (determinize.schema_pruned_states, …) aggregate the same
// quantities process-wide; this struct reports them per call.
struct SchemaDeterminizeStats {
  // (context subset, NFA subset) pairs materialized as DFA states,
  // including the shared sink when reachable.
  int64_t pair_states = 0;
  // Distinct non-empty NFA subsets observed at the pruning frontier,
  // i.e. computed as a successor but collapsed into the sink because the
  // context half died. Each is a subset the dense construction would
  // have materialized (and expanded) as its own state.
  int64_t pruned_states = 0;
  // Transitions redirected into the sink by a dead context.
  int64_t pruned_transitions = 0;
  // Largest NFA subset materialized.
  int64_t max_subset_size = 0;
};

// Schema-guided subset construction: determinizes `nfa` jointly with
// `context` (an NFA over the same alphabet), materializing only
// (context subset, NFA subset) pairs reachable under the schema. This is
// the only way into the joint construction; its library caller is the
// Thm 3.5 pair walk (approx/minimal_upper_check.cc), where the candidate
// XSD genuinely restricts the target subsets. See the
// file header for the language contract. `subsets` / `context_subsets`
// receive, per DFA state, the NFA-half / context-half state set (both
// empty for the sink). Budget charging, interning, metrics, and span
// tracing follow the dense determinizer's contract; every DFA state
// created (sink included) charges the state quota.
StatusOr<Dfa> DeterminizeUnderSchema(
    const Nfa& nfa, const Nfa& context, Budget* budget = nullptr,
    std::vector<StateSet>* subsets = nullptr,
    std::vector<StateSet>* context_subsets = nullptr,
    SchemaDeterminizeStats* stats = nullptr);

}  // namespace stap

#endif  // STAP_AUTOMATA_DETERMINIZE_H_
