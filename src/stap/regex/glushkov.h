// Glushkov (position) automaton construction.
//
// The Glushkov automaton of an expression with m symbol occurrences has
// m + 1 states, is ε-free, and is *state-labeled*: every transition into a
// position state carries that position's symbol (the property the paper
// relies on in Section 2.1). An expression without counted repetition is
// one-unambiguous ("deterministic" in XML Schema terms, enforcing UPA)
// exactly when its Glushkov automaton is deterministic.
//
// Counted repetition is lowered here by bounded expansion. Each copy of
// r mints fresh positions, so the position count — and the Glushkov
// automaton — grows linearly in the bounds. r{n,} becomes r^{n-1}·r+.
// One rule orders the copies: copy i + 1 follows the last set of copy i
// and of every nullable copy since the last non-nullable one. A bounded
// r{n,m} with a non-nullable body so nests its optional copies,
// r^n·(r(r(…)?)?)?: the follow edges number O(m·|last(r)|·|first(r)|)
// and the subset construction of a{0,m} meets singletons only. A
// nullable body keeps the flat r^n·(r?)^{m-n}, whose copies all follow
// each earlier one (O(m²) edges); nesting would not help there, as
// first(r(…)?) then reaches every later copy. Both forms denote the same
// language, and RegexToDfa returns the canonical minimal DFA, so the
// lowering never shows in a compiled content model. The subset
// construction before minimization may still create more states than
// the flat form's on some bodies (a star inside a counted body, or a
// repeat inside a repeat). The entry points charge every position
// against the state quota and every follow edge against the set quota,
// so adversarial bounds like a{1,1000000} fail with kResourceExhausted
// instead of exhausting memory. Downstream analyses (BKW, dre_approx)
// operate on the compiled DFAs and never see kRepeat nodes.
#ifndef STAP_REGEX_GLUSHKOV_H_
#define STAP_REGEX_GLUSHKOV_H_

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/regex/ast.h"

namespace stap {

// Builds the Glushkov automaton; `num_symbols` is the alphabet size the
// automaton should range over (symbols in the regex must be < num_symbols).
// Counted repetition is expanded; positions charge `budget`'s state quota
// and follow edges its set quota (nullptr = unlimited).
StatusOr<Nfa> GlushkovAutomaton(const Regex& regex, int num_symbols,
                                Budget* budget = nullptr);

// Compiles to the canonical minimal DFA, threading `budget` through
// expansion, determinization, and minimization.
StatusOr<Dfa> RegexToDfa(const Regex& regex, int num_symbols,
                         Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_REGEX_GLUSHKOV_H_
