// Upper XSD-approximations of Boolean combinations of XSDs
// (paper, Sections 3.2–3.4).
//
//  * Union (Theorem 3.6): the minimal upper approximation of
//    L(D1) ∪ L(D2) in time O(|D1||D2|) — the determinized type automaton
//    only reaches pair-sized subsets.
//  * Intersection (Theorem 3.8): single-type languages are closed under
//    intersection, so the "approximation" is exact.
//  * Complement (Theorem 3.9): an EDTD D_c for the complement that guesses
//    the path to a violation, whose determinized type automaton stays
//    polynomial (subsets have at most two elements).
//  * Difference (Theorem 3.10): same idea, run D1 in parallel with the
//    violation guess against D2.
//
// All inputs are single-type EDTDs (checked); schemas over different
// alphabets are aligned by symbol names first.
//
// The dominant cost of each construction is the per-type (or per-pair)
// content-model build — independent automaton products/determinizations
// writing disjoint slots. When a ThreadPool is supplied those loops run
// as parallel sweeps.
#ifndef STAP_APPROX_UPPER_BOOLEAN_H_
#define STAP_APPROX_UPPER_BOOLEAN_H_

#include <utility>

#include "stap/approx/upper.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

class ThreadPool;

// Rewrites both schemas over the union of their alphabets (merged by
// symbol name); languages are unchanged.
std::pair<Edtd, Edtd> AlignAlphabets(const Edtd& a, const Edtd& b);

// An EDTD for L(a) ∪ L(b) (disjoint union of the type sets). Works for
// arbitrary EDTDs; alphabets are aligned internally.
Edtd EdtdUnion(const Edtd& a, const Edtd& b);

// An EDTD for L(a) ∩ L(b) (product of the type sets; regular tree
// languages are closed under intersection — the substrate of
// Proposition 3.7). Works for arbitrary EDTDs; alphabets aligned
// internally; the result is reduced.
//
// The EDTD constructions below build per-type contents (products,
// determinizations, minimizations) that all charge `budget`; exhaustion in
// any parallel-sweep worker propagates as kResourceExhausted. A null
// budget is unlimited (here and in the theorems further down).
StatusOr<Edtd> EdtdIntersection(const Edtd& a, const Edtd& b,
                                ThreadPool* pool = nullptr,
                                Budget* budget = nullptr);

// An EDTD for the complement of the single-type `xsd` (Theorem 3.9's D_c):
// one "path" type per XSD state guessing the route to a violation, plus
// one "anything" type per symbol.
StatusOr<Edtd> ComplementEdtd(const DfaXsd& xsd, ThreadPool* pool = nullptr,
                              Budget* budget = nullptr);

// An EDTD for L(d1) \ L(xsd2), d1 single-type (Theorem 3.10's D_c).
StatusOr<Edtd> DifferenceEdtd(const Edtd& d1, const DfaXsd& xsd2,
                              ThreadPool* pool = nullptr,
                              Budget* budget = nullptr);

// Minimal upper XSD-approximations per the theorems. Inputs must be
// single-type (checked). `options` configures the final
// MinimalUpperApproximation (upper.h) — note that any context supplied
// there constrains the *result* schema's alphabet, not the internal
// types-as-symbols content builds of Complement/Difference, which stay
// dense (their ambient language is all of Σ*; see DESIGN.md on why the
// complement construction is the degenerate case for schema guidance).
StatusOr<DfaXsd> UpperUnion(const Edtd& d1, const Edtd& d2,
                            Budget* budget = nullptr,
                            const UpperOptions& options = {});
StatusOr<DfaXsd> UpperIntersection(const Edtd& d1, const Edtd& d2,
                                   ThreadPool* pool = nullptr,
                                   Budget* budget = nullptr);  // exact
StatusOr<DfaXsd> UpperComplement(const Edtd& d, ThreadPool* pool = nullptr,
                                 Budget* budget = nullptr,
                                 const UpperOptions& options = {});
StatusOr<DfaXsd> UpperDifference(const Edtd& d1, const Edtd& d2,
                                 ThreadPool* pool = nullptr,
                                 Budget* budget = nullptr,
                                 const UpperOptions& options = {});

}  // namespace stap

#endif  // STAP_APPROX_UPPER_BOOLEAN_H_
