// Minimal upper XSD-approximation of an EDTD (paper, Construction 3.1 and
// Theorem 3.2).
//
// Determinizes the type automaton by the subset construction and unions
// the content models of the merged types; each union is determinized
// (dense subset construction) and minimized, with nothing to configure,
// so every merged content is canonical. The result is the unique
// minimal single-type language containing L(edtd); it can be exponentially
// larger (Theorem 3.2's family, gen/families.h).
#ifndef STAP_APPROX_UPPER_H_
#define STAP_APPROX_UPPER_H_

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

// Returns the minimal upper XSD-approximation of L(edtd). The input is
// reduced internally (Proviso 2.3). States of the result correspond to the
// reachable non-empty subsets of ∆. The type-automaton subset
// construction and every per-subset content determinization charge the
// budget's state quota, so the Theorem 3.2 exponential family aborts with
// kResourceExhausted instead of exhausting memory. `budget` has no default
// so the call stays distinct from the unbudgeted form below; a null budget
// is unlimited.
StatusOr<DfaXsd> MinimalUpperApproximation(const Edtd& edtd, Budget* budget);

// Unbudgeted form, kept for the pinned perfbench/src/approx_corpus.cc.
DfaXsd MinimalUpperApproximation(const Edtd& edtd);

}  // namespace stap

#endif  // STAP_APPROX_UPPER_H_
