// The schema families used in the paper's lower-bound proofs, plus helper
// constructions. Each family is referenced by the theorem that introduces
// it; the benchmarks sweep the parameter n and regenerate the claimed
// growth curves.
#ifndef STAP_GEN_FAMILIES_H_
#define STAP_GEN_FAMILIES_H_

#include <utility>

#include "stap/regex/ast.h"
#include "stap/schema/edtd.h"

namespace stap {

// An EDTD accepting exactly the *unary* trees whose root-to-leaf label
// sequence lies in L(regex) (non-empty words only). Built from the
// Glushkov automaton, so the EDTD is linear in the expression.
Edtd UnaryEdtdFromRegex(const Regex& regex, const Alphabet& sigma);

// Theorem 3.2: EDTD of size O(n) over {a,b} for the unary-tree language
// (a+b)*a(a+b)^n, whose minimal upper XSD-approximation needs Ω(2^n)
// types.
Edtd Theorem32Family(int n);

// Theorem 3.6: stEDTDs D1 ("at most n a-labeled nodes") and
// D2 ("at most n b-labeled nodes") over unary trees; the minimal upper
// approximation of the union has Ω(n²) types.
std::pair<Edtd, Edtd> Theorem36Family(int n);

// Theorem 3.8: stEDTDs for unary a-chains whose length is a multiple of
// p1 / p2, the two smallest primes larger than n; the (exact) intersection
// needs Ω(p1·p2) types.
std::pair<Edtd, Edtd> Theorem38Family(int n);

// Theorem 4.3: the DTDs D1 (linear trees a*b) and D2 (a-trees of rank <=
// 2), whose union has infinitely many maximal lower XSD-approximations.
std::pair<Edtd, Edtd> Theorem43Schemas();

// Theorem 4.3: the n-th maximal lower XSD-approximation X_n of
// L(D1) ∪ L(D2).
Edtd Theorem43LowerApproximation(int n);

// Theorem 4.11: the unary-alphabet DTD D with a -> a + ε; its complement
// (trees with a node of rank >= 2) has infinitely many maximal lower
// approximations.
Edtd Theorem411Dtd();

// Theorem 4.11: the n-th maximal lower XSD-approximation X_n of the
// complement of Theorem411Dtd(). (The rules are reconstructed from the
// proof's argument: unary spine of length n, a node with >= 2 children at
// depth n, arbitrary a-trees below depth n+1.)
Edtd Theorem411LowerApproximation(int n);

// Example 2.6's EDTD (types τ1, τ2¹, τ2² over {a, b}), used by tests to
// reproduce the worked type automaton.
Edtd Example26Edtd();

// A counted-content family shaped like real-world occurrence-constrained
// schemas: a document of min..max items (counted repetition Item{n,m}),
// each item holding 1..3 fields, plus optional header/footer framing.
// The schema *source* stays O(1) while the compiled content DFA grows
// linearly in `max_items`; bench_counted A/Bs that gap through the
// compile→export pipeline. Requires 0 <= min_items <= max_items,
// max_items >= 1.
Edtd CountedFamily(int min_items, int max_items);

}  // namespace stap

#endif  // STAP_GEN_FAMILIES_H_
