// Glushkov (position) automaton construction.
//
// The Glushkov automaton of an expression with m symbol occurrences has
// m + 1 states, is ε-free, and is *state-labeled*: every transition into a
// position state carries that position's symbol (the property the paper
// relies on in Section 2.1). An expression is one-unambiguous
// ("deterministic" in XML Schema terms, enforcing UPA) exactly when its
// Glushkov automaton is deterministic.
//
// Counted repetition r{n,m} is lowered here by bounded expansion
// (r^n·(r?)^{m-n}, and r^{n-1}·r+ for r{n,}): each copy mints fresh
// positions, so the position count — and the Glushkov automaton — grows
// linearly in the bounds. The entry points charge every position
// against the state quota and every follow edge against the set quota, so
// adversarial bounds like a{1,1000000} fail with kResourceExhausted
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

// True if the Glushkov automaton of `regex` is deterministic, i.e. the
// expression is one-unambiguous / satisfies UPA. Counted repetition is
// judged through its expansion, matching the W3C "UPA after expansion"
// reading.
bool IsOneUnambiguous(const Regex& regex, int num_symbols);

// Compiles to the canonical minimal DFA, threading `budget` through
// expansion, determinization, and minimization.
StatusOr<Dfa> RegexToDfa(const Regex& regex, int num_symbols,
                         Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_REGEX_GLUSHKOV_H_
