// DFA minimization to a canonical form, on one partition-refinement
// kernel.
#ifndef STAP_AUTOMATA_MINIMIZE_H_
#define STAP_AUTOMATA_MINIMIZE_H_

#include <cstdint>
#include <vector>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// Hopcroft partition refinement (Hopcroft 1971), in O(|Σ|·n log n).
// `*block` gives every state of `dfa` an initial block in
// [0, num_blocks); on success it holds the coarsest partition that refines
// those blocks and is stable under δ: two states share a block iff they
// shared one initially and, on every symbol, either both lack a
// transition or both move to states that share a block (a missing
// transition goes to a virtual sink in a block of its own). The blocks
// are renumbered 0, 1, … in order of their least state, and their number
// is returned. Refinement never adds states, so only the wall-clock
// deadline can exhaust: it is checked on entry and once per splitter
// popped from the worklist. If `splitters` is non-null it receives the
// number of splitters processed (the virtual sink's included).
StatusOr<int> RefinePartition(const Dfa& dfa, int num_blocks,
                              std::vector<int>* block, Budget* budget,
                              int64_t* splitters = nullptr);

// The quotient of `dfa` by a partition into `num_blocks` blocks that is
// stable under δ (RefinePartition's result), numbered canonically: the
// initial state's block is state 0 and the rest follow in BFS order,
// symbols ascending. Blocks the BFS does not reach are dropped. A block
// is final iff its least state is. If `state_of_block` is non-null it
// receives each block's state in the result, or kNoState if dropped.
Dfa CanonicalQuotient(const Dfa& dfa, const std::vector<int>& block,
                      int num_blocks,
                      std::vector<int>* state_of_block = nullptr);

// Returns the canonical minimal *partial* DFA for L(dfa): the trimmed
// automaton's final/non-final partition refined by RefinePartition, its
// CanonicalQuotient taken. Two
// DFAs accept the same language iff Minimize() of both compares
// operator==. Traced as the `minimize` span (args states_in, splitters,
// states_out). A null budget is unlimited.
StatusOr<Dfa> Minimize(const Dfa& dfa, Budget* budget = nullptr);

// Determinizes (dense subset construction, determinize.h) and minimizes:
// the subset construction charges states, the refinement checks the
// deadline.
StatusOr<Dfa> MinimizeNfa(const Nfa& nfa, Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_AUTOMATA_MINIMIZE_H_
