// Schema-guided subset construction (after Niehren, Sakho & Al Serhali,
// "Schema-Based Automata Determinization", PAPERS.md).
//
// Runs the subset construction jointly with a *context automaton*:
// states are pairs (context subset, NFA subset), and a successor whose
// context half is empty can never be reached by any word the ambient
// schema admits, so the pair collapses into one shared dead sink instead
// of spawning a fresh subset. Over schema-constrained content models
// most of the 2^n dense subsets are exactly such unreachable states.
//
// No command determinizes under a schema — the library's one subset
// construction is the dense Determinize (automata/determinize.h) — so
// this lives with the oracles: the Thm 3.5 check's pair walk
// (oracles/minimal_upper_check.h), the inclusion oracle it yields
// (oracles/inclusion.h), and the E21 pruning bench.
//
// Language contract (see docs/ALGORITHMS.md):
//  * For every word w all of whose prefixes are live in the context
//    (non-empty context reach set), the result accepts w iff the NFA
//    does. In particular, if L(context) ⊇ L(nfa), the result accepts
//    exactly L(nfa) — pruning is then a pure representation win.
//  * Words with a dead prefix are rejected (routed to the sink), so
//    L(result) ⊆ L(nfa) always, and L(result) ∩ L(context) =
//    L(nfa) ∩ L(context) for any context.
#ifndef STAP_TESTS_ORACLES_DETERMINIZE_SCHEMA_H_
#define STAP_TESTS_ORACLES_DETERMINIZE_SCHEMA_H_

#include <cstdint>
#include <vector>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// Construction-time counts of one schema-guided run.
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

// Determinizes `nfa` jointly with `context` (an NFA over the same
// alphabet), materializing only (context subset, NFA subset) pairs
// reachable under the schema. `subsets` / `context_subsets` receive, per
// DFA state, the NFA-half / context-half state set (both empty for the
// sink). Every DFA state created (sink included) charges the budget's
// state quota, as in Determinize; a null budget is unlimited.
StatusOr<Dfa> DeterminizeUnderSchema(
    const Nfa& nfa, const Nfa& context, Budget* budget = nullptr,
    std::vector<StateSet>* subsets = nullptr,
    std::vector<StateSet>* context_subsets = nullptr,
    SchemaDeterminizeStats* stats = nullptr);

// Ambient-schema context for the schema-guided determinization tests
// and benchmarks:
// the DFA-shaped NFA of all words over `num_symbols` symbols containing
// at most `max_count` occurrences of `symbol` (states 0..max_count count
// occurrences; exceeding the cap is dead). Under this context the
// Theorem 3.2 type automaton's 2^n dense subsets collapse to O(n·k)
// live pairs, the motivating case of Niehren/Sakho/Al Serhali
// (PAPERS.md).
Nfa BoundedLetterContext(int symbol, int max_count, int num_symbols);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_DETERMINIZE_SCHEMA_H_
