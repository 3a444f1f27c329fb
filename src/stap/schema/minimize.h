// Minimization of single-type schemas (paper's reference [20]).
//
// The minimal DFA-based XSD for a single-type language is unique: it is
// the quotient of the (reduced) type automaton under the coarsest
// equivalence that respects state labels, content languages, and
// successors. MinimizeXsd computes it in polynomial time; the paper uses
// this to deliver "optimal representations of optimal approximations".
//
// It works on the DfaXsd itself, whose contents are over Σ, and keeps no
// automata kernel of its own: the reduction is ReduceGraph
// (schema/reduce.h) rooted at the start symbols' states, one Minimize
// per distinct restricted content; the initial partition is keyed on
// (label, content DFA); the refinement is Minimize's Hopcroft kernel
// (RefinePartition, automata/minimize.h), O(|Σ|·n log n) on the partial
// XSD automaton; and the result is its CanonicalQuotient. No N-type
// stEDTD view is built.
#ifndef STAP_SCHEMA_MINIMIZE_H_
#define STAP_SCHEMA_MINIMIZE_H_

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/single_type.h"

namespace stap {

// Returns the canonical minimal DfaXsd for L(xsd): reduced, merged,
// content DFAs minimized, states in BFS order. Structural equality of two
// minimized XSDs (XsdStructurallyEqual) decides language equivalence.
// The reduced automaton and its canonical content DFAs charge the state
// quota, and every refinement splitter checks the wall-clock deadline.
// Traced as the `schema.minimize_xsd` span, with args states_in,
// states_reduced (after reduction, q_init included), splitters (popped
// by the XSD-level refinement) and xsd_states. `budget` has no default so
// the call stays distinct from the unbudgeted form below; a null budget
// is unlimited.
StatusOr<DfaXsd> MinimizeXsd(const DfaXsd& xsd, Budget* budget);

// Unbudgeted form, kept for the pinned perfbench/src/approx_corpus.cc.
DfaXsd MinimizeXsd(const DfaXsd& xsd);

// Field-by-field comparison (alphabets must match by name).
bool XsdStructurallyEqual(const DfaXsd& a, const DfaXsd& b);

}  // namespace stap

#endif  // STAP_SCHEMA_MINIMIZE_H_
