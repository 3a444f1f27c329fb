// DFA minimization to a canonical form.
#ifndef STAP_AUTOMATA_MINIMIZE_H_
#define STAP_AUTOMATA_MINIMIZE_H_

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// Returns the canonical minimal *partial* DFA for L(dfa): Moore partition
// refinement on the completed automaton, dead states removed, states
// renumbered in BFS order (symbols ascending). Two DFAs accept the same
// language iff Minimize() of both compares operator==. The refinement
// rounds check the wall-clock deadline (minimization never grows the state
// count, so only time can exhaust). A null budget is unlimited.
StatusOr<Dfa> Minimize(const Dfa& dfa, Budget* budget = nullptr);

// Determinizes and minimizes: the subset construction charges states, the
// refinement checks the deadline. A non-null `context` routes the subset
// construction through DeterminizeUnderSchema (see determinize.h),
// exploring only subsets reachable under the ambient schema; a null
// context is the dense path. When L(context) ⊇ L(nfa) the result is the
// same canonical minimal DFA as the dense path (minimization erases the
// pair structure); otherwise it is the canonical minimal DFA of the
// sub-language L(nfa) ∩ L(context)-prefix-live words.
StatusOr<Dfa> MinimizeNfa(const Nfa& nfa, Budget* budget = nullptr,
                          const Nfa* context = nullptr);

}  // namespace stap

#endif  // STAP_AUTOMATA_MINIMIZE_H_
