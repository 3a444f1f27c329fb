// Polynomial-time inclusion tests into single-type schemas
// (paper, Lemma 3.3).
//
// L(D1) ⊆ L(D2) for an EDTD D1 and a single-type D2 reduces to (1) the
// reachable pairs of the two type automata and (2) per-pair content-model
// inclusion — both polynomial because D2's type automaton is
// deterministic. Contrast with the EXPTIME route in treeauto/exact.h.
//
// The per-pair content checks are independent of the pair BFS and of each
// other, so they run as one parallel sweep over the reachable pairs when
// a ThreadPool is supplied (they are the dominant cost; the BFS itself is
// a cheap graph walk).
#ifndef STAP_APPROX_INCLUSION_H_
#define STAP_APPROX_INCLUSION_H_

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

class ThreadPool;

// L(d1) ⊆ L(xsd2)? Polynomial in |d1| + |xsd2|. `d1` is reduced
// internally; alphabets are aligned by name. When `pool` is non-null the
// per-pair content-model inclusions run on it. The pair BFS charges
// states and the per-pair content inclusions run the budgeted antichain
// engine; the first exhausted worker wins and the sweep drains
// cooperatively. `budget` has no default so the call stays distinct from
// the unbudgeted form below; a null budget is unlimited.
StatusOr<bool> EdtdIncludedInXsd(const Edtd& d1, const DfaXsd& xsd2,
                                 ThreadPool* pool, Budget* budget);

// Unbudgeted form, kept for the pinned perfbench/src/approx_corpus.cc.
bool EdtdIncludedInXsd(const Edtd& d1, const DfaXsd& xsd2,
                       ThreadPool* pool = nullptr);

// Convenience wrapper: d2 must be single-type (checked). A null budget is
// unlimited (here and below).
StatusOr<bool> IncludedInSingleType(const Edtd& d1, const Edtd& d2,
                                    ThreadPool* pool = nullptr,
                                    Budget* budget = nullptr);

// Language equivalence of two single-type EDTDs (both checked).
StatusOr<bool> SingleTypeEquivalent(const Edtd& d1, const Edtd& d2,
                                    ThreadPool* pool = nullptr,
                                    Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_APPROX_INCLUSION_H_
