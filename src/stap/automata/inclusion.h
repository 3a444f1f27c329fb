// Language inclusion and equivalence tests.
//
// The production entry points run the antichain engine (antichain.h):
// on-the-fly frontier search over (state, bitset) pairs with subsumption
// pruning, no up-front subset construction. The pre-antichain
// subset-product search is retained under *ViaSubsets names as a
// differential-test oracle and benchmark baseline.
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

// L(a) ⊆ L(b)? Antichain frontier search; worst-case exponential in |b|
// (the PSPACE-hard case of Section 5's NFA content models) but explores
// only ⊆-minimal b-sets, with early exit on the first counterexample.
// A null budget is unlimited.
StatusOr<bool> NfaIncludedInNfa(const Nfa& a, const Nfa& b,
                                Budget* budget = nullptr);

// L(a) == L(b)?
bool DfaEquivalent(const Dfa& a, const Dfa& b);

// A shortest word in L(a) \ L(b), if any.
std::optional<Word> DfaInclusionCounterexample(const Dfa& a, const Dfa& b);

// A shortest word in L(nfa) \ L(dfa), if any.
std::optional<Word> NfaDfaInclusionCounterexample(const Nfa& nfa,
                                                  const Dfa& dfa);

// ---------------------------------------------------------------------
// Determinize-based oracles (pre-antichain implementations). Verdicts and
// witness lengths match the antichain engine; kept for differential tests
// (tests/antichain_differential_test.cc) and the crossover benchmark in
// bench_hotpath. See DESIGN.md for when these are the right tool.
// ---------------------------------------------------------------------

// L(a) ⊆ L(b) via the on-the-fly subset-product search (determinizes
// both sides' reachable subsets without subsumption pruning).
bool NfaIncludedInNfaViaSubsets(const Nfa& a, const Nfa& b);

// L(a) ⊆ L(b) via DeterminizeUnderSchema(b, context = a): only b-subsets
// reachable along words of L(a)'s prefixes are materialized, and the
// restricted-mode contract (L(result) ∩ L(a) = L(b) ∩ L(a)) makes the
// verdict exact — L(a) ⊆ L(b) iff L(a) ⊆ L(result). Differential oracle
// for the schema-guided determinizer against the antichain engine.
StatusOr<bool> NfaIncludedInNfaViaSchemaDeterminize(const Nfa& a,
                                                    const Nfa& b,
                                                    Budget* budget = nullptr);

// Shortest word in L(nfa) \ L(dfa) via the (subset of nfa, dfa state)
// product BFS.
std::optional<Word> NfaDfaInclusionCounterexampleViaSubsets(const Nfa& nfa,
                                                            const Dfa& dfa);

}  // namespace stap

#endif  // STAP_AUTOMATA_INCLUSION_H_
