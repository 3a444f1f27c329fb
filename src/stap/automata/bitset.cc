#include "stap/automata/bitset.h"

namespace stap {

DenseNfa::DenseNfa(const Nfa& nfa)
    : num_states_(nfa.num_states()),
      num_symbols_(nfa.num_symbols()),
      rows_(static_cast<size_t>(nfa.num_states()) * nfa.num_symbols()),
      initial_(nfa.num_states()),
      finals_(nfa.num_states()) {
  for (int q = 0; q < num_states_; ++q) {
    if (nfa.IsFinal(q)) finals_.Add(q);
    for (int a = 0; a < num_symbols_; ++a) {
      DenseStateSet& row = rows_[static_cast<size_t>(q) * num_symbols_ + a];
      row.Reset(num_states_);
      for (int r : nfa.Next(q, a)) row.Add(r);
    }
  }
  for (int q : nfa.initial()) initial_.Add(q);
}

}  // namespace stap
