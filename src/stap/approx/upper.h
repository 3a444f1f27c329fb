// Single-type approximations of an EDTD by Construction 3.1's subset
// construction (paper, Construction 3.1 and Theorem 3.2).
//
// Both approximations determinize the type automaton by the subset
// construction, so every state of the result merges a set of same-labeled
// types; they differ only in the content rule that gives a merged state
// its content model. SubsetConstruction is that one construction: it
// determinizes the type automaton of an already-reduced EDTD once and
// runs the content rules the caller asks for on the same subsets, so
// `stap measure` gets both approximations from one run. A merged state's
// content depends only on the set of its members' distinct content
// images, so each rule runs once per such set, on one representative type
// per image, and every state with that set shares the (canonical,
// byte-identical) result: Theorem 3.2's family has 2^(n+1) merged states
// but two distinct sets. A set of one image gets the same content from
// both rules (each minimizes that one image), so its rule runs once and
// both results share the content.
//
// Counted provenance survives the construction. A merged state's content
// is the union of its members' images μ(content[τ]), so the regex
// Substitute(source[τ1], μ) | … | Substitute(source[τk], μ) over one
// representative per image denotes it exactly. The union rule builds that
// source next to the content, once per distinct set, and every state with
// the set shares it by pointer (DfaXsd::content_source); the intersection
// rule keeps it only for a set of one image. It is built only when some
// member's source carries counted repetition, since the printers and the
// exporter prefer a source only then, so XsdToText prints catalog.xsd's
// product{1,500} instead of its state-eliminated expansion.
//
//  * MinimalUpperApproximation — the union of the merged types' content
//    images (ContentImageUnion), determinized (dense subset construction)
//    and minimized, with nothing to configure, so every merged content is
//    canonical. The result is the unique minimal single-type language
//    containing L(edtd); it can be exponentially larger (Theorem 3.2's
//    family, gen/families.h).
//  * SubsetIntersectionLower — the intersection of the content images. A
//    tree accepted by the result assigns, by induction on height, every
//    type in a node's subset to that node's subtree — children words lie
//    in every member's content image, and the occurring witnesses stay
//    inside the child subsets — so the language is contained in L(edtd).
//    It is exact on single-type inputs (all reachable subsets are
//    singletons, so intersection and union coincide), but NOT the maximal
//    single-type sublanguage in general: maximality is the paper's open
//    Section 4 problem (Theorem 4.3's example has two incomparable maximal
//    lower approximations, and this construction may undershoot both).
//    What it gives `stap measure` is a sound, cheap baseline whose loss
//    |L(S) \ L(lower)| the counting DPs can quantify.
#ifndef STAP_APPROX_UPPER_H_
#define STAP_APPROX_UPPER_H_

#include <optional>
#include <vector>

#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

// Returns the minimal upper XSD-approximation of L(edtd). The input is
// reduced internally (Proviso 2.3), then SubsetConstruction runs the
// union rule alone. States of the result correspond to the reachable
// non-empty subsets of ∆. The type-automaton subset construction and
// every content determinization charge the budget's state quota, so the
// Theorem 3.2 exponential family aborts with kResourceExhausted instead
// of exhausting memory. `budget` has no default so the call stays
// distinct from the unbudgeted form below; a null budget is unlimited.
StatusOr<DfaXsd> MinimalUpperApproximation(const Edtd& edtd, Budget* budget);

// Unbudgeted form, kept for the pinned perfbench/src/approx_corpus.cc.
DfaXsd MinimalUpperApproximation(const Edtd& edtd);

// Returns a single-type lower approximation with L(result) ⊆ L(edtd), by
// the intersection content rule above. The input is reduced internally,
// then SubsetConstruction runs the intersection rule alone. For an input
// with empty language the result is the empty XSD (no start symbols).
// The subset construction and the content determinizations and products
// charge the budget's state quota; a null budget is unlimited.
StatusOr<DfaXsd> SubsetIntersectionLower(const Edtd& edtd,
                                         Budget* budget = nullptr);

// What one SubsetConstruction run gives: the approximations it was asked
// for, and two facts read off its subsets.
struct SubsetApproximations {
  std::optional<DfaXsd> upper;  // MinimalUpperApproximation's result
  std::optional<DfaXsd> lower;  // SubsetIntersectionLower's result
  // Every reachable subset is a singleton. For a reduced input this is
  // IsSingleType: every type is reachable, so the type automaton is
  // deterministic iff no reachable subset holds two types.
  bool single_type = false;
  // Every merged state's members share one content image, so both rules
  // give every state the same content and L(lower) = L(upper) (the two
  // XSDs are equal, whichever of them was asked for).
  bool lower_is_upper = false;
};

// Construction 3.1 on an already-reduced EDTD (ReduceEdtd's output; the
// result is unspecified otherwise): one subset construction of the type
// automaton, then the union rule if `upper`, the intersection rule if
// `lower`, per distinct set of member images. The subset construction
// and every content determinization and product charge the budget's
// state quota; a null budget is unlimited.
StatusOr<SubsetApproximations> SubsetConstruction(const Edtd& reduced,
                                                  bool upper, bool lower,
                                                  Budget* budget);

// The union rule: an NFA over Σ for the union of the μ-images of the
// content models of `types` (sorted type ids of `edtd`). Empty `types`
// give the empty language.
Nfa ContentImageUnion(const Edtd& edtd, const std::vector<int>& types);

}  // namespace stap

#endif  // STAP_APPROX_UPPER_H_
