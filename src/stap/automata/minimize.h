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

// Determinizes (dense subset construction, determinize.h) and minimizes:
// the subset construction charges states, the refinement checks the
// deadline.
StatusOr<Dfa> MinimizeNfa(const Nfa& nfa, Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_AUTOMATA_MINIMIZE_H_
