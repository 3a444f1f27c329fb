// Non-deterministic and bottom-up deterministic binary tree automata
// (paper, Section 4.4.2).
//
// Binary trees here are Tree values in which every node has zero or two
// children. Bta is the non-deterministic model with leaf transitions
// a -> q and internal transitions a(q1, q2) -> q; DetBta is the result of
// the bottom-up subset construction (complete; the empty subset acts as
// the sink).
#ifndef STAP_TREEAUTO_BTA_H_
#define STAP_TREEAUTO_BTA_H_

#include <map>
#include <tuple>
#include <vector>

#include "stap/automata/interner.h"
#include "stap/automata/nfa.h"
#include "stap/base/budget.h"
#include "stap/base/status.h"
#include "stap/tree/tree.h"

namespace stap {

class Bta {
 public:
  Bta(int num_states, int num_symbols);

  int num_states() const { return num_states_; }
  int num_symbols() const { return num_symbols_; }

  int AddState();
  void AddLeafTransition(int symbol, int state);
  void AddInternalTransition(int symbol, int left, int right, int state);
  void SetFinal(int state, bool is_final = true);
  bool IsFinal(int state) const { return final_[state]; }

  const StateSet& LeafStates(int symbol) const { return leaf_[symbol]; }
  // States reachable by a(left, right); empty set if none.
  const StateSet& InternalStates(int symbol, int left, int right) const;

  // The set of states at the root of `tree` (bottom-up evaluation).
  // Require: every node has 0 or 2 children.
  StateSet EvalStates(const Tree& tree) const;

  bool Accepts(const Tree& tree) const;

  // True if no binary tree is accepted (bottom-up reachability fixpoint).
  bool IsEmpty() const;

  // Total number of transitions.
  int64_t NumTransitions() const;

 private:
  int num_states_;
  int num_symbols_;
  std::vector<StateSet> leaf_;  // per symbol
  std::map<std::tuple<int, int, int>, StateSet> internal_;
  std::vector<bool> final_;
};

// Bottom-up deterministic (and complete, via the empty-subset sink) binary
// tree automaton produced by DeterminizeBta.
class DetBta {
 public:
  int num_states() const { return subsets_.size(); }
  int num_symbols() const { return num_symbols_; }

  int LeafState(int symbol) const { return leaf_[symbol]; }
  // Successor of a(left, right); falls back to the sink when the triple
  // was never materialized (possible only for unreachable combinations).
  int InternalState(int symbol, int left, int right) const;

  bool IsFinal(int state) const { return final_[state]; }
  int sink() const { return sink_; }

  // The NFA subset a DetBta state denotes (for diagnostics).
  const StateSet& Subset(int state) const { return subsets_[state]; }

  int EvalState(const Tree& tree) const;
  bool Accepts(const Tree& tree) const;

 private:
  friend StatusOr<DetBta> DeterminizeBta(const Bta& bta, Budget* budget);

  int num_symbols_ = 0;
  int sink_ = 0;
  Interner<StateSet, IntVectorHash> subsets_;  // state -> NFA subset
  std::vector<int> leaf_;  // per symbol
  std::map<std::tuple<int, int, int>, int> internal_;
  std::vector<bool> final_;
};

// Bottom-up subset construction over the reachable subsets (exponential in
// the worst case — the paper's Section 4.4 cost). Every interned subset
// charges the state quota and every materialized internal transition the
// set quota, so adversarial inputs abort with kResourceExhausted instead
// of exhausting memory. A null budget is unlimited.
StatusOr<DetBta> DeterminizeBta(const Bta& bta, Budget* budget = nullptr);

}  // namespace stap

#endif  // STAP_TREEAUTO_BTA_H_
