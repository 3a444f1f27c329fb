// Inclusion oracles for the antichain engine (automata/antichain.h).
//
// The library decides every inclusion with the antichain frontier
// search. These are the independent routes the tests and benches check
// it against; no production path calls them, so they live in the
// stap_oracles library rather than in libstap. The two subset-product
// searches keep their tables in std::map, sharing no code with the
// library's interner.
#ifndef STAP_TESTS_ORACLES_INCLUSION_H_
#define STAP_TESTS_ORACLES_INCLUSION_H_

#include <optional>

#include "stap/automata/dfa.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// L(a) ⊆ L(b)? The antichain engine's NFA-against-NFA entry
// (AntichainIncluded): worst-case exponential in |b| (the PSPACE-hard
// case of Section 5's NFA content models) but explores only ⊆-minimal
// b-sets, with early exit on the first counterexample. No command
// compares two NFAs, so it lives here, beside the routes it is checked
// against. A null budget is unlimited.
StatusOr<bool> NfaIncludedInNfa(const Nfa& a, const Nfa& b,
                                Budget* budget = nullptr);

// L(a) ⊆ L(b) via a breadth-first search over pairs (reachable subset of
// a, reachable subset of b) for one where a accepts and b rejects, with
// no subsumption pruning.
bool NfaIncludedInNfaViaSubsets(const Nfa& a, const Nfa& b);

// Shortest word in L(nfa) \ L(dfa) via a breadth-first search over pairs
// (reachable subset of nfa, dfa state).
std::optional<Word> NfaDfaInclusionCounterexampleViaSubsets(const Nfa& nfa,
                                                            const Dfa& dfa);

// L(a) ⊆ L(b) via DeterminizeUnderSchema(b, context = a): only b-subsets
// reachable along words of L(a)'s prefixes are materialized, and the
// restricted-mode contract (L(result) ∩ L(a) = L(b) ∩ L(a)) makes the
// verdict exact — L(a) ⊆ L(b) iff L(a) ⊆ L(result). Differential oracle
// for the schema-guided determinizer against the antichain engine.
StatusOr<bool> NfaIncludedInNfaViaSchemaDeterminize(const Nfa& a,
                                                    const Nfa& b,
                                                    Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_INCLUSION_H_
