// Minimization of single-type schemas (paper's reference [20]).
//
// The minimal DFA-based XSD for a single-type language is unique: it is
// the quotient of the (reduced) type automaton under the coarsest
// equivalence that respects state labels, content languages, and
// successors. MinimizeXsd computes it in polynomial time; the paper uses
// this to deliver "optimal representations of optimal approximations".
#ifndef STAP_SCHEMA_MINIMIZE_H_
#define STAP_SCHEMA_MINIMIZE_H_

#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/single_type.h"

namespace stap {

// Returns the canonical minimal DfaXsd for L(xsd): reduced, merged,
// content DFAs minimized, states in BFS order. Structural equality of two
// minimized XSDs (XsdStructurallyEqual) decides language equivalence.
// The reduced automaton and its canonical content DFAs charge the state
// quota, and every refinement round checks the wall-clock deadline.
// `budget` has no default so the call stays distinct from the unbudgeted
// form below; a null budget is unlimited.
StatusOr<DfaXsd> MinimizeXsd(const DfaXsd& xsd, Budget* budget);

// Unbudgeted form, kept for the pinned perfbench/src/approx_corpus.cc.
DfaXsd MinimizeXsd(const DfaXsd& xsd);

// Minimizes `xsd` relative to an ambient sibling-word constraint: every
// content DFA is re-canonicalized schema-guided under `sibling_context`
// (automata/determinize.h), so two states whose content languages differ
// only on context-dead words fall into the same block and merge. The
// result is the canonical minimal XSD for the *restricted* schema — it
// validates exactly like `xsd` on documents all of whose child words are
// context-live, and rejects some documents outside the context that
// `xsd` accepted. A context that kills some content language entirely
// makes that type childless-only or unproductive; the reduction pass
// then prunes it like any other unproductive type.
StatusOr<DfaXsd> MinimizeXsdUnderContext(const DfaXsd& xsd,
                                         const Nfa& sibling_context,
                                         Budget* budget = nullptr);

// Convenience: minimize a single-type EDTD (checked) through DfaXsd form.
Edtd MinimizeStEdtd(const Edtd& edtd);

// Field-by-field comparison (alphabets must match by name).
bool XsdStructurallyEqual(const DfaXsd& a, const DfaXsd& b);

}  // namespace stap

#endif  // STAP_SCHEMA_MINIMIZE_H_
