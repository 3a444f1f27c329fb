#include "stap/treeauto/bta.h"

#include <algorithm>
#include <utility>

#include "stap/automata/interner.h"
#include "stap/base/check.h"

namespace stap {

namespace {
const StateSet kEmptySet;
}  // namespace

Bta::Bta(int num_states, int num_symbols)
    : num_states_(num_states),
      num_symbols_(num_symbols),
      leaf_(num_symbols),
      final_(num_states, false) {
  STAP_CHECK(num_states >= 0 && num_symbols >= 0);
}

int Bta::AddState() {
  final_.push_back(false);
  return num_states_++;
}

void Bta::AddLeafTransition(int symbol, int state) {
  STAP_CHECK(symbol >= 0 && symbol < num_symbols_);
  STAP_CHECK(state >= 0 && state < num_states_);
  StateSetInsert(leaf_[symbol], state);
}

void Bta::AddInternalTransition(int symbol, int left, int right, int state) {
  STAP_CHECK(symbol >= 0 && symbol < num_symbols_);
  STAP_CHECK(left >= 0 && left < num_states_);
  STAP_CHECK(right >= 0 && right < num_states_);
  STAP_CHECK(state >= 0 && state < num_states_);
  StateSetInsert(internal_[{symbol, left, right}], state);
}

void Bta::SetFinal(int state, bool is_final) {
  STAP_CHECK(state >= 0 && state < num_states_);
  final_[state] = is_final;
}

const StateSet& Bta::InternalStates(int symbol, int left, int right) const {
  auto it = internal_.find({symbol, left, right});
  return it == internal_.end() ? kEmptySet : it->second;
}

StateSet Bta::EvalStates(const Tree& tree) const {
  STAP_CHECK(tree.children.empty() || tree.children.size() == 2);
  if (tree.children.empty()) return leaf_[tree.label];
  StateSet left = EvalStates(tree.children[0]);
  StateSet right = EvalStates(tree.children[1]);
  StateSet result;
  for (int l : left) {
    for (int r : right) {
      for (int q : InternalStates(tree.label, l, r)) {
        StateSetInsert(result, q);
      }
    }
  }
  return result;
}

bool Bta::Accepts(const Tree& tree) const {
  for (int q : EvalStates(tree)) {
    if (final_[q]) return true;
  }
  return false;
}

bool Bta::IsEmpty() const {
  std::vector<bool> reachable(num_states_, false);
  bool changed = true;
  for (int a = 0; a < num_symbols_; ++a) {
    for (int q : leaf_[a]) reachable[q] = true;
  }
  while (changed) {
    changed = false;
    for (const auto& [key, targets] : internal_) {
      auto [symbol, left, right] = key;
      (void)symbol;
      if (!reachable[left] || !reachable[right]) continue;
      for (int q : targets) {
        if (!reachable[q]) {
          reachable[q] = true;
          changed = true;
        }
      }
    }
  }
  for (int q = 0; q < num_states_; ++q) {
    if (reachable[q] && final_[q]) return false;
  }
  return true;
}

int64_t Bta::NumTransitions() const {
  int64_t total = 0;
  for (const StateSet& states : leaf_) total += states.size();
  for (const auto& [key, targets] : internal_) {
    (void)key;
    total += targets.size();
  }
  return total;
}

int DetBta::InternalState(int symbol, int left, int right) const {
  auto it = internal_.find({symbol, left, right});
  return it == internal_.end() ? sink_ : it->second;
}

int DetBta::EvalState(const Tree& tree) const {
  STAP_CHECK(tree.children.empty() || tree.children.size() == 2);
  if (tree.children.empty()) return leaf_[tree.label];
  return InternalState(tree.label, EvalState(tree.children[0]),
                       EvalState(tree.children[1]));
}

bool DetBta::Accepts(const Tree& tree) const {
  return final_[EvalState(tree)];
}

StatusOr<DetBta> DeterminizeBta(const Bta& bta, Budget* budget) {
  DetBta det;
  det.num_symbols_ = bta.num_symbols();

  Status charge_status;
  auto intern = [&](StateSet subset) -> int {
    auto [id, inserted] = det.subsets_.Intern(std::move(subset));
    if (inserted) {
      if (charge_status.ok()) charge_status = Budget::ChargeStates(budget);
      const StateSet& added = det.subsets_[id];
      det.final_.push_back(std::any_of(added.begin(), added.end(),
                                       [&](int q) { return bta.IsFinal(q); }));
    }
    return id;
  };

  det.sink_ = intern(StateSet{});
  det.leaf_.resize(bta.num_symbols());
  for (int a = 0; a < bta.num_symbols(); ++a) {
    det.leaf_[a] = intern(bta.LeafStates(a));
  }

  // Fixpoint: combine every pair of known subsets under every symbol until
  // no new subset or entry appears.
  bool changed = true;
  while (changed) {
    STAP_RETURN_IF_ERROR(charge_status);
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    changed = false;
    const int known = det.num_states();
    for (int a = 0; a < bta.num_symbols(); ++a) {
      for (int s1 = 0; s1 < known; ++s1) {
        for (int s2 = 0; s2 < known; ++s2) {
          if (det.internal_.count({a, s1, s2}) > 0) continue;
          STAP_RETURN_IF_ERROR(Budget::ChargeSets(budget));
          StateSet combined;
          for (int q1 : det.subsets_[s1]) {
            for (int q2 : det.subsets_[s2]) {
              for (int q : bta.InternalStates(a, q1, q2)) {
                StateSetInsert(combined, q);
              }
            }
          }
          int target = intern(std::move(combined));
          det.internal_[{a, s1, s2}] = target;
          changed = true;
        }
      }
    }
  }
  STAP_RETURN_IF_ERROR(charge_status);
  return det;
}

}  // namespace stap
