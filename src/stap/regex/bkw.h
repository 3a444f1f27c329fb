// Deciding whether a regular *language* is one-unambiguous, i.e.
// definable by a deterministic regular expression (Brüggemann-Klein &
// Wood, "One-Unambiguous Regular Languages", Inf. & Comp. 142, 1998).
//
// Section 5 of the paper leans on this notion: XML Schema restricts
// content models to deterministic expressions, and [4] shows a best
// deterministic approximation need not exist. A given *expression* is
// one-unambiguous when its Glushkov automaton (glushkov.h) is
// deterministic; this module tests a given *language* via the BKW orbit
// criterion on its minimal DFA:
//
//   L(M) is one-unambiguous iff the S-cut of the minimal DFA M (S = the
//   M-consistent symbols) has the orbit property and all its orbit
//   languages are one-unambiguous.
#ifndef STAP_REGEX_BKW_H_
#define STAP_REGEX_BKW_H_

#include "stap/automata/dfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// True if L(dfa) is definable by some deterministic (one-unambiguous)
// regular expression. Every recursive orbit minimization charges the
// budget (the recursion multiplies minimal-DFA sizes, so the state quota
// is the effective bound). A null budget is unlimited. For an NFA,
// determinize first (automata/determinize.h), schema-guided if wanted.
StatusOr<bool> IsOneUnambiguousLanguage(const Dfa& dfa,
                                        Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_REGEX_BKW_H_
