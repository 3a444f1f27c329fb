// Minimal upper XSD-approximation of an EDTD (paper, Construction 3.1 and
// Theorem 3.2).
//
// Determinizes the type automaton by the subset construction and unions
// the content models of the merged types. The result is the unique
// minimal single-type language containing L(edtd); it can be exponentially
// larger (Theorem 3.2's family, gen/families.h).
#ifndef STAP_APPROX_UPPER_H_
#define STAP_APPROX_UPPER_H_

#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

struct UpperOptions {
  // Canonicalize every merged content model (determinize + minimize).
  // Turning this off keeps determinized-but-unminimized content DFAs:
  // same language, larger representation — the ablation measured by
  // bench_upper_edtd.
  bool minimize_content = true;

  // Context for every merged-content determinization/minimization. With
  // an exact-mode context (language contains every merged content union,
  // e.g. ContentUnionContext below) the output XSD is language-identical
  // to the dense path — and with minimize_content also structurally
  // identical, which the differential tests exploit. Null = dense. Must
  // outlive the call; not owned.
  const Nfa* content_context = nullptr;
};

// Union of the Σ-homomorphic images of every content model of `edtd`:
// the coarsest exact-mode `content_context` (its language contains every
// per-subset content union MinimalUpperApproximation merges). Because it
// contains each target it never prunes — it exists as the identity
// witness for differential tests and the CLI's --schema-guided mode, not
// as an optimization; see DESIGN.md for where real contexts come from.
Nfa ContentUnionContext(const Edtd& edtd);

// Returns the minimal upper XSD-approximation of L(edtd). The input is
// reduced internally (Proviso 2.3). States of the result correspond to the
// reachable non-empty subsets of ∆. The type-automaton subset
// construction and every per-subset content determinization charge the
// budget's state quota, so the Theorem 3.2 exponential family aborts with
// kResourceExhausted instead of exhausting memory. `budget` has no default
// so the call stays distinct from the unbudgeted form below; a null budget
// is unlimited.
StatusOr<DfaXsd> MinimalUpperApproximation(const Edtd& edtd, Budget* budget,
                                           const UpperOptions& options = {});

// Unbudgeted form, kept for the pinned perfbench/src/approx_corpus.cc.
DfaXsd MinimalUpperApproximation(const Edtd& edtd,
                                 const UpperOptions& options = {});

}  // namespace stap

#endif  // STAP_APPROX_UPPER_H_
