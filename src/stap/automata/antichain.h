// Antichain-based language inclusion, universality, and equivalence for
// NFAs — no up-front subset construction.
//
// L(a) ⊆ L(b) fails iff some word reaches a final a-state while the set
// of b-states reachable on the same word contains no final state. The
// engine runs a BFS over pairs (p, S) of one a-state and the dense bitset
// of b-states reachable along the discovery path, with subsumption
// pruning: a newcomer (p, S') is discarded when some kept pair (p, S)
// with S ⊆ S' exists, because every counterexample extension of (p, S')
// is also one of (p, S). Only ⊆-minimal b-sets per a-state are expanded,
// which collapses the exponential subset space whenever short words
// already produce small reachable sets (cf. the antichain algorithms of
// De Wulf–Doyen–Henzinger–Raskin and the schema-guided determinization
// line of work). The search exits on the first counterexample and
// reconstructs a shortest witness word from parent pointers.
//
// The entry points charge every kept frontier node (states) and every
// generated successor set (sets) against the Budget, so adversarial
// instances whose antichains do blow up (the PSPACE-hard content-model
// cases) return kResourceExhausted instead of running unbounded. The
// engine reports its work through base/metrics.h: nodes kept, candidates
// generated, and subsumption prunes per stage.
//
// The map-based subset-product searches this engine replaced live on as
// differential-test oracles in tests/oracles/inclusion.h, outside the
// library; see DESIGN.md.
#ifndef STAP_AUTOMATA_ANTICHAIN_H_
#define STAP_AUTOMATA_ANTICHAIN_H_

#include <optional>

#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"

namespace stap {

// A shortest word in L(a) \ L(b), or nullopt when L(a) ⊆ L(b). A null
// budget is unlimited (here and below).
StatusOr<std::optional<Word>> AntichainInclusionCounterexample(
    const Nfa& a, const Nfa& b, Budget* budget = nullptr);

// L(a) ⊆ L(b)?
StatusOr<bool> AntichainIncluded(const Nfa& a, const Nfa& b,
                                 Budget* budget = nullptr);

// A shortest word outside L(nfa), or nullopt when L(nfa) = Σ*.
StatusOr<std::optional<Word>> AntichainUniversalityCounterexample(
    const Nfa& nfa, Budget* budget = nullptr);

// L(nfa) = Σ*? Unbudgeted.
bool AntichainUniversal(const Nfa& nfa);

// L(a) == L(b)?
StatusOr<bool> AntichainEquivalent(const Nfa& a, const Nfa& b,
                                   Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_AUTOMATA_ANTICHAIN_H_
