// Boolean operations and alphabet homomorphisms on automata.
#ifndef STAP_AUTOMATA_OPS_H_
#define STAP_AUTOMATA_OPS_H_

#include <vector>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// Product of two DFAs, exploring only reachable pairs. The resulting DFA
// accepts L(a) op L(b). Every reachable product pair charges the state
// quota, so quadratic blowups abort with kResourceExhausted. A null budget
// is unlimited.
enum class BoolOp { kAnd, kOr, kDiff };
StatusOr<Dfa> DfaProduct(const Dfa& a, const Dfa& b, BoolOp op,
                         Budget* budget = nullptr);

Dfa DfaIntersection(const Dfa& a, const Dfa& b);
Dfa DfaUnion(const Dfa& a, const Dfa& b);
Dfa DfaDifference(const Dfa& a, const Dfa& b);

// Complete complement: accepts exactly the words not in L(dfa).
Dfa DfaComplement(const Dfa& dfa);

// Disjoint union of two NFAs (accepts L(a) ∪ L(b)).
Nfa NfaUnion(const Nfa& a, const Nfa& b);

// Homomorphic image: given `dfa` over alphabet ∆ and a map ∆ -> Σ, returns
// an NFA over Σ for { h(w) : w ∈ L(dfa) }. Non-injective maps produce
// genuine nondeterminism. `image_size` is |Σ|.
Nfa HomomorphicImage(const Dfa& dfa, const std::vector<int>& symbol_map,
                     int image_size);

// Inverse-homomorphism restriction: given `dfa` over Σ and a map ∆ -> Σ,
// returns a DFA over ∆ for { w ∈ ∆* : h(w) ∈ L(dfa) }. Symbols mapped to
// kNoSymbol get no transitions.
Dfa InverseHomomorphism(const Dfa& dfa, const std::vector<int>& symbol_map,
                        int domain_size);

// Renumbers the symbols of `dfa`: symbol a becomes remap[a], or loses its
// transitions when remap[a] is kNoSymbol, in a DFA over `new_size`
// symbols with the same states. Widening an alphabet is the identity
// remap; the new symbols then never occur.
Dfa RemapSymbols(const Dfa& dfa, const std::vector<int>& remap, int new_size);

}  // namespace stap

#endif  // STAP_AUTOMATA_OPS_H_
