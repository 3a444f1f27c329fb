// Subset construction (dense).
//
// Explores every reachable subset of the NFA, each a dense bitset; DFA
// state id i is the i-th subset interned. The schema-guided variant
// (after Niehren, Sakho & Al Serhali, "Schema-Based Automata
// Determinization", PAPERS.md), which runs the construction jointly with
// a context automaton, serves no command and lives with the differential
// oracles in tests/oracles/determinize_schema.h.
#ifndef STAP_AUTOMATA_DETERMINIZE_H_
#define STAP_AUTOMATA_DETERMINIZE_H_

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

}  // namespace stap

#endif  // STAP_AUTOMATA_DETERMINIZE_H_
