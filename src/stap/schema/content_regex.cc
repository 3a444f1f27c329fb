#include "stap/schema/content_regex.h"

#include <utility>

#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/regex/from_dfa.h"

namespace stap {

StatusOr<RegexPtr> ContentRegexMemo::Eliminate(const Dfa& dfa,
                                               std::vector<int>* symbols) {
  std::vector<bool> used(dfa.num_symbols(), false);
  for (int q = 0; q < dfa.num_states(); ++q) {
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      if (dfa.Next(q, a) != kNoState) used[a] = true;
    }
  }
  std::vector<int> compact(dfa.num_symbols(), kNoSymbol);
  symbols->clear();
  for (int a = 0; a < dfa.num_symbols(); ++a) {
    if (!used[a]) continue;
    compact[a] = static_cast<int>(symbols->size());
    symbols->push_back(a);
  }
  return Lookup(
      RemapSymbols(dfa, compact, static_cast<int>(symbols->size())),
      /*minimize=*/false);
}

StatusOr<RegexPtr> ContentRegexMemo::EliminateMinimized(Dfa local) {
  return Lookup(std::move(local), /*minimize=*/true);
}

StatusOr<RegexPtr> ContentRegexMemo::Lookup(Dfa key, bool minimize) {
  const auto [id, inserted] = keys_.Intern(std::move(key));
  if (inserted) {
    const Dfa* dfa = &keys_[id];
    StatusOr<Dfa> minimal = Dfa();
    if (minimize) {
      minimal = Minimize(*dfa, budget_);
      if (!minimal.ok()) return minimal.status();
      dfa = &*minimal;
    }
    StatusOr<RegexPtr> regex = DfaToRegex(*dfa, budget_);
    if (!regex.ok()) return regex.status();
    regexes_.push_back(*std::move(regex));
  }
  return regexes_[id];
}

}  // namespace stap
