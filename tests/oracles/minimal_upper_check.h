// Deciding whether a single-type EDTD is the minimal upper
// XSD-approximation of an EDTD (paper, Theorem 3.5 — PSPACE-complete).
//
// The check runs in two phases: the polynomial inclusion
// L(target) ⊆ L(candidate) (Lemma 3.3), then the on-the-fly product of the
// candidate's type automaton with the subset automaton of the target's —
// subsets are materialized lazily, so space stays proportional to the
// frontier rather than to the full exponential construction. The per-pair
// content checks test the candidate content against the *union NFA* of
// the subset's contents with the antichain engine — the union is never
// determinized. When a ThreadPool is supplied the content checks run as
// one parallel sweep.
//
// No command runs the check; it is the independent verdict the tests
// hold Construction 3.1's output to (random_property_test,
// minimal_upper_check_test) and the E7 bench, so it lives in
// stap_oracles rather than in libstap.
#ifndef STAP_TESTS_ORACLES_MINIMAL_UPPER_CHECK_H_
#define STAP_TESTS_ORACLES_MINIMAL_UPPER_CHECK_H_

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"

namespace stap {

class ThreadPool;

// Is L(candidate) the minimal upper XSD-approximation of L(target)?
// `candidate` must be single-type (checked); `target` may be any EDTD.
// The lazy product pairs charge the set quota and the per-pair antichain
// inclusions charge through the same budget, bounding the PSPACE-hard
// phase. A null budget is unlimited.
StatusOr<bool> IsMinimalUpperApproximation(const Edtd& candidate,
                                           const Edtd& target,
                                           ThreadPool* pool = nullptr,
                                           Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_TESTS_ORACLES_MINIMAL_UPPER_CHECK_H_
