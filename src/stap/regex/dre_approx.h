// Deterministic-regular-expression upper approximation of a DFA.
//
// The paper's conclusion: "the present methods for computing upper
// approximations ... followed by a translation of DFAs to deterministic
// regular expressions using the methods of [4] provides an algorithm for
// approximating real-world XSDs." [4] shows a *best* deterministic
// expression need not exist, so the translation is itself an (upper)
// approximation. This module implements a sound chain-expression
// heuristic in that spirit:
//
//   1. order the alphabet by occurrence precedence in L(dfa); symbols
//      that can occur in both orders fall into one group (SCCs of the
//      precedence relation);
//   2. emit one factor per group, in topological order, with the
//      tightest sound quantifier (a, a?, a+, a*, (a|b)+, (a|b)*, ...).
//
// The result is one-unambiguous by construction (groups are disjoint and
// ordered) and its language contains L(dfa); it is exact exactly when
// L(dfa) is itself such a chain expression.
#ifndef STAP_REGEX_DRE_APPROX_H_
#define STAP_REGEX_DRE_APPROX_H_

#include "stap/automata/dfa.h"
#include "stap/regex/ast.h"

namespace stap {

// A deterministic (one-unambiguous) expression with L(dfa) ⊆ L(result).
RegexPtr ApproximateDre(const Dfa& dfa);

// True if the approximation is exact (L(result) == L(dfa)).
bool ApproximateDreIsExact(const Dfa& dfa);

}  // namespace stap

#endif  // STAP_REGEX_DRE_APPROX_H_
