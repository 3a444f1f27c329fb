// Deterministic finite automata, possibly partial.
//
// A Dfa stores a transition table state x symbol -> state with kNoState
// marking missing transitions (partial automata are the common case for
// trimmed content models). Dfa values produced by Minimize() are in a
// canonical numbering, so operator== decides language equivalence of
// minimized automata structurally.
#ifndef STAP_AUTOMATA_DFA_H_
#define STAP_AUTOMATA_DFA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stap/automata/nfa.h"

namespace stap {

inline constexpr int kNoState = -1;

class Dfa {
 public:
  // Constructs a DFA with `num_states` states, no transitions, and
  // initial state 0 (if any state exists).
  Dfa(int num_states, int num_symbols);

  // A zero-state, zero-symbol placeholder (accepts nothing).
  Dfa() : Dfa(0, 0) {}

  // The DFA accepting the empty language (a single non-final state).
  static Dfa EmptyLanguage(int num_symbols);

  // The DFA accepting exactly the empty word.
  static Dfa EpsilonOnly(int num_symbols);

  // The DFA accepting all words over the alphabet.
  static Dfa AllWords(int num_symbols);

  // The DFA accepting exactly the given finite set of words.
  static Dfa FromWords(const std::vector<Word>& words, int num_symbols);

  int num_states() const { return num_states_; }
  int num_symbols() const { return num_symbols_; }
  int initial() const { return initial_; }

  int AddState();
  void SetInitial(int state);
  void SetTransition(int from, int symbol, int to);
  void SetFinal(int state, bool is_final = true);

  bool IsFinal(int state) const { return final_[state]; }

  // Successor of `state` on `symbol`, or kNoState.
  int Next(int state, int symbol) const {
    return delta_[state * num_symbols_ + symbol];
  }

  // State reached from `from` on `word`, or kNoState if the run dies.
  int Run(int from, const Word& word) const;

  bool Accepts(const Word& word) const;

  // Size per the paper: number of states plus number of transitions.
  int64_t Size() const;

  // True if every (state, symbol) pair has a transition.
  bool IsComplete() const;

  // Returns a complete DFA for the same language (adds a sink if needed).
  Dfa Completed() const;

  // Restricts to reachable and co-reachable states (initial state is kept
  // even if dead, so the result always has >= 1 state).
  Dfa Trimmed() const;

  // True if no word is accepted.
  bool IsEmpty() const;

  // True if the empty word is accepted.
  bool AcceptsEpsilon() const { return final_[initial_]; }

  // View of this DFA as an NFA.
  Nfa ToNfa() const;

  // Lexicographically-shortest accepted word, if the language is non-empty.
  // Returns false if empty.
  bool ShortestWord(Word* out) const;

  // All accepted words of length <= max_length, in length-lex order.
  std::vector<Word> WordsUpToLength(int max_length) const;

  // Structural equality (same numbering). Language equality for canonical
  // (minimized) DFAs.
  friend bool operator==(const Dfa& a, const Dfa& b) {
    return a.num_states_ == b.num_states_ && a.num_symbols_ == b.num_symbols_ &&
           a.initial_ == b.initial_ && a.delta_ == b.delta_ &&
           a.final_ == b.final_;
  }

  std::string ToString() const;

 private:
  int num_states_;
  int num_symbols_;
  int initial_ = 0;
  std::vector<int> delta_;  // indexed by state * num_symbols + symbol
  std::vector<bool> final_;
};

// Structural hash of a DFA (states, symbols, initial, delta, finals):
// equal under operator== means equal hashes. Keys the tables of distinct
// content DFAs, and is the per-content-model provenance fingerprint
// stored in compiled-schema artifacts (io/artifact.h), so its value must
// not change.
uint64_t DfaStructuralHash(const Dfa& dfa);

// Hasher for Dfa keys (Interner<Dfa, DfaHash>, automata/interner.h).
struct DfaHash {
  size_t operator()(const Dfa& dfa) const {
    return static_cast<size_t>(DfaStructuralHash(dfa));
  }
};

}  // namespace stap

#endif  // STAP_AUTOMATA_DFA_H_
