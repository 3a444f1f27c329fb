// Map-based reference kernels: the subset construction and Moore
// minimization as they were written before interning, with std::map
// tables and the chained set_union successor computation. They share no
// table code with the library (automata/interner.h), so a bug there
// cannot make a kernel and its reference agree. The differential tests
// (tests/hotpath_differential_test.cc) compare the production kernels
// against them; bench_hotpath times both.
#ifndef STAP_TESTS_ORACLES_MAP_KERNELS_H_
#define STAP_TESTS_ORACLES_MAP_KERNELS_H_

#include <vector>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"

namespace stap {

// Successors of `states` on `symbol`, by one set_union per member.
StateSet MapNext(const Nfa& nfa, const StateSet& states, int symbol);

// Subset construction over the reachable subsets, discovering them in
// the same order as Determinize. If `subsets` is non-null it receives the
// NFA state set of each DFA state.
Dfa MapDeterminize(const Nfa& nfa, std::vector<StateSet>* subsets = nullptr);

// Moore partition refinement, with the result numbered canonically (BFS
// order, symbols ascending) like Minimize's.
Dfa MapMinimize(const Dfa& input);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_MAP_KERNELS_H_
