// Maximal lower XSD-approximations of unions fixing one disjunct
// (paper, Section 4.2.2: Definitions 4.4, Lemmas 4.5–4.7, Theorem 4.8).
//
// nv(D2, D1) is the set of trees t ∈ L(D2) that never lead outside
// L(D1) ∪ L(D2) when closed together with L(D1) under ancestor-guarded
// subtree exchange. The paper shows L(D1) ∪ nv(D2, D1) is the unique
// maximal lower XSD-approximation of L(D1) ∪ L(D2) containing L(D1), and
// that everything is computable in polynomial time via the "s-type" /
// "c-type" analysis of the product type automaton:
//
//   s-type τ:  some D1-subtree at ancestor-type τ is not a D2-subtree
//              (S1(τ) \ S2(τ) ≠ ∅)
//   c-type τ:  some D1-context at ancestor-type τ is not a D2-context
//              (C1(τ) \ C2(τ) ≠ ∅)
//
// and then restricts D2's content models per the case split of d'.
#ifndef STAP_APPROX_NV_H_
#define STAP_APPROX_NV_H_

#include <string>
#include <vector>

#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/schema/edtd.h"
#include "stap/schema/single_type.h"

namespace stap {

// Analysis over the reachable states of the product of the two type
// automata (⊥ coordinates are kNoState).
struct NvAnalysis {
  struct PairState {
    int q1 = kNoState;  // state of D1's XSD automaton, or ⊥
    int q2 = kNoState;  // state of D2's XSD automaton, or ⊥
    bool s_type = false;
    bool c_type = false;
  };
  // pair 0 is the product initial state (q_init, q_init).
  std::vector<PairState> pairs;
  // transition[pair * num_symbols + a] -> pair id or -1.
  std::vector<int> transition;
  int num_symbols = 0;

  int Next(int pair, int symbol) const {
    return transition[pair * num_symbols + symbol];
  }

  std::string ToString(const Alphabet& sigma) const;
};

// Both schemas must be single-type (checked); alphabets are aligned and
// the inputs reduced internally. Every product pair and every content
// product charges the budget's state quota, so each function below
// returns kResourceExhausted once the quota or the deadline runs out. A
// null budget is unlimited.
StatusOr<NvAnalysis> AnalyzeNv(const Edtd& d1, const Edtd& d2,
                               Budget* budget = nullptr);

// The single-type schema D' with L(D') = nv(D2, D1). Polynomial
// (Lemma 4.6).
StatusOr<DfaXsd> NonViolating(const Edtd& d1, const Edtd& d2,
                              Budget* budget = nullptr);

// L(D1) ∪ nv(D2, D1): the unique maximal lower XSD-approximation of
// L(D1) ∪ L(D2) that contains L(D1) (Theorem 4.8). Polynomial.
StatusOr<DfaXsd> LowerUnionFixingFirst(const Edtd& d1, const Edtd& d2,
                                       Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_APPROX_NV_H_
