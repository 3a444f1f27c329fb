// Maximal lower XSD-approximation checks (paper, Section 4.4).
//
// The paper's general decision procedure (Theorem 4.15) builds a doubly
// exponential tree automaton over the guard automaton N_k; it is a
// decidability result rather than a runnable algorithm. This module
// implements the same predicate for *finite* (depth- and width-bounded)
// instances by computing the closure fixpoints exactly:
//
//   S is a maximal lower approximation of D iff there is no t ∈ L(D) with
//   closure(L(S) ∪ {t}) ⊆ L(D)                       (Section 4.4.2)
//
// quantifying t over the bounded enumeration and evaluating the closure
// with approx/closure.h. The guard automaton N_k (whose states separate
// all ancestor strings up to length k) is also provided, matching the
// paper's reduction of ancestor-guarded to ancestor-type-guarded exchange
// on depth-bounded languages.
#ifndef STAP_APPROX_LOWER_CHECK_H_
#define STAP_APPROX_LOWER_CHECK_H_

#include <optional>

#include "stap/approx/closure.h"
#include "stap/approx/upper.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/tree/enumerate.h"

namespace stap {

class ThreadPool;

// The DFA N_k: separates every pair of distinct strings of length <= k
// (a complete |Σ|-ary trie with an absorbing overflow state).
Dfa NkAutomaton(int k, int num_symbols);

struct LowerCheckResult {
  bool is_lower = false;    // L(S) ⊆ L(D)
  bool is_maximal = false;  // no closure-safe extension tree exists
  // A tree t ∈ L(D) \ L(S) with closure(L(S) ∪ {t}) ⊆ L(D), when found.
  std::optional<Tree> extension;
  // False when a closure fixpoint hit its cap; is_maximal is then only
  // "no extension found within the caps".
  bool exhaustive = true;
  // kResourceExhausted when ClosureOptions::budget tripped during the
  // enumeration or any closure fixpoint (exhaustive is then also false:
  // the budgeted run proved nothing about the skipped extensions); OK
  // otherwise. A found extension is still a real extension.
  Status status;
};

// Decides maximality of the lower approximation on the bounded instance:
// both languages are taken restricted to `bounds` (exact when both are
// finite and contained in the bounds). `candidate` must be single-type.
//
// When a ThreadPool is supplied the per-extension closure fixpoints run
// as one parallel sweep; the result (including which extension tree is
// reported and the `exhaustive` flag) is identical to the serial order.
LowerCheckResult CheckMaximalLowerFinite(const Edtd& candidate,
                                         const Edtd& target,
                                         const TreeBounds& bounds,
                                         const ClosureOptions& options = {},
                                         ThreadPool* pool = nullptr);

// Is L(edtd) definable by a single-type EDTD at all? (Martens et al.'s
// EXPTIME test, via Theorem 3.2: the language is single-type definable iff
// it equals its minimal upper approximation.) The upper construction and
// the converse inclusion both charge the budget. A null budget is
// unlimited.
StatusOr<bool> IsSingleTypeDefinable(const Edtd& edtd,
                                     Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_APPROX_LOWER_CHECK_H_
