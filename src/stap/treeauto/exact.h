// Exact decision procedures on EDTDs via binary tree automata.
//
// These are the classical EXPTIME routes (Theorem 2.13's flavor): encode,
// determinize bottom-up, complement, product, test emptiness. They serve
// as ground truth for the polynomial algorithms of Section 3 and as the
// baseline in benchmark E6.
#ifndef STAP_TREEAUTO_EXACT_H_
#define STAP_TREEAUTO_EXACT_H_

#include <optional>

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/tree/tree.h"

namespace stap {

// L(d1) ⊆ L(d2)? Worst-case exponential in |d2|. The bottom-up
// determinization of d2 charges the budget, and the product search checks
// its deadline once per row of product pairs. `budget` has no default so
// the call stays distinct from the unbudgeted form below; a null budget is
// unlimited.
StatusOr<bool> EdtdIncludedInExact(const Edtd& d1, const Edtd& d2,
                                   Budget* budget);

// Unbudgeted form.
bool EdtdIncludedInExact(const Edtd& d1, const Edtd& d2);

// L(d1) == L(d2)?
bool EdtdEquivalentExact(const Edtd& d1, const Edtd& d2);

// A witness unranked tree in L(d1) \ L(d2), if any (smallest found by the
// bottom-up search, not necessarily globally minimal).
std::optional<Tree> EdtdInclusionCounterexample(const Edtd& d1,
                                                const Edtd& d2);

}  // namespace stap

#endif  // STAP_TREEAUTO_EXACT_H_
