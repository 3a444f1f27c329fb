// Language inclusion and equivalence tests.
//
// Every entry point runs the antichain engine (antichain.h): on-the-fly
// frontier search over (state, bitset) pairs with subsumption pruning, no
// up-front subset construction. The subset-product and schema-guided
// determinization oracles it is cross-checked against live with the
// tests, in tests/oracles/inclusion.h.
#ifndef STAP_AUTOMATA_INCLUSION_H_
#define STAP_AUTOMATA_INCLUSION_H_

#include <optional>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// L(a) ⊆ L(b)? Polynomial: antichain pair search over (state, state).
bool DfaIncludedIn(const Dfa& a, const Dfa& b);

// L(nfa) ⊆ L(dfa)? Polynomial: pairs (NFA state, DFA state) search.
// This is the engine behind the paper's Lemma 3.3. A null budget is
// unlimited.
StatusOr<bool> NfaIncludedInDfa(const Nfa& nfa, const Dfa& dfa,
                                Budget* budget = nullptr);

// L(a) == L(b)?
bool DfaEquivalent(const Dfa& a, const Dfa& b);

// A shortest word in L(a) \ L(b), if any.
std::optional<Word> DfaInclusionCounterexample(const Dfa& a, const Dfa& b);

// A shortest word in L(nfa) \ L(dfa), if any.
std::optional<Word> NfaDfaInclusionCounterexample(const Nfa& nfa,
                                                  const Dfa& dfa);

}  // namespace stap

#endif  // STAP_AUTOMATA_INCLUSION_H_
