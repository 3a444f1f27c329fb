// DFA -> regular expression via state elimination.
//
// Used to render schema content models back into the textual format. The
// produced expression is equivalent to the automaton but not guaranteed to
// be deterministic (one-unambiguous); Section 5 of the paper discusses why
// a best deterministic expression need not even exist.
#ifndef STAP_REGEX_FROM_DFA_H_
#define STAP_REGEX_FROM_DFA_H_

#include "stap/automata/dfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/regex/ast.h"

namespace stap {

// Returns a regular expression for L(dfa), as a DAG: a path expression
// feeds every arc built through it, so the text it renders to can be
// exponential in the states (Regex::ToString charges what it renders).
// Each eliminated state checks the budget's deadline and charges the
// arcs its elimination builds to the state quota; a null budget is
// unlimited.
StatusOr<RegexPtr> DfaToRegex(const Dfa& dfa, Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_REGEX_FROM_DFA_H_
