#include "stap/automata/dfa.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>

#include "stap/automata/interner.h"
#include "stap/base/check.h"

namespace stap {

Dfa::Dfa(int num_states, int num_symbols)
    : num_states_(num_states),
      num_symbols_(num_symbols),
      delta_(static_cast<size_t>(num_states) * num_symbols, kNoState),
      final_(num_states, false) {
  STAP_CHECK(num_states >= 0 && num_symbols >= 0);
}

Dfa Dfa::EmptyLanguage(int num_symbols) { return Dfa(1, num_symbols); }

Dfa Dfa::EpsilonOnly(int num_symbols) {
  Dfa dfa(1, num_symbols);
  dfa.SetFinal(0);
  return dfa;
}

Dfa Dfa::AllWords(int num_symbols) {
  Dfa dfa(1, num_symbols);
  dfa.SetFinal(0);
  for (int a = 0; a < num_symbols; ++a) dfa.SetTransition(0, a, 0);
  return dfa;
}

Dfa Dfa::FromWords(const std::vector<Word>& words, int num_symbols) {
  // Build a trie; tries are deterministic by construction.
  Dfa dfa(1, num_symbols);
  for (const Word& word : words) {
    int state = 0;
    for (int symbol : word) {
      STAP_CHECK(symbol >= 0 && symbol < num_symbols);
      int next = dfa.Next(state, symbol);
      if (next == kNoState) {
        next = dfa.AddState();
        dfa.SetTransition(state, symbol, next);
      }
      state = next;
    }
    dfa.SetFinal(state);
  }
  return dfa;
}

int Dfa::AddState() {
  delta_.insert(delta_.end(), num_symbols_, kNoState);
  final_.push_back(false);
  return num_states_++;
}

void Dfa::SetInitial(int state) {
  STAP_CHECK(state >= 0 && state < num_states_);
  initial_ = state;
}

void Dfa::SetTransition(int from, int symbol, int to) {
  STAP_CHECK(from >= 0 && from < num_states_);
  STAP_CHECK(symbol >= 0 && symbol < num_symbols_);
  STAP_CHECK(to == kNoState || (to >= 0 && to < num_states_));
  delta_[from * num_symbols_ + symbol] = to;
}

void Dfa::SetFinal(int state, bool is_final) {
  STAP_CHECK(state >= 0 && state < num_states_);
  final_[state] = is_final;
}

int Dfa::Run(int from, const Word& word) const {
  int state = from;
  for (int symbol : word) {
    if (state == kNoState) return kNoState;
    state = Next(state, symbol);
  }
  return state;
}

bool Dfa::Accepts(const Word& word) const {
  if (num_states_ == 0) return false;
  int state = Run(initial_, word);
  return state != kNoState && final_[state];
}

int64_t Dfa::Size() const {
  int64_t transitions = 0;
  for (int next : delta_) {
    if (next != kNoState) ++transitions;
  }
  return num_states_ + transitions;
}

bool Dfa::IsComplete() const {
  for (int next : delta_) {
    if (next == kNoState) return false;
  }
  return num_states_ > 0;
}

Dfa Dfa::Completed() const {
  if (IsComplete()) return *this;
  Dfa result = *this;
  if (result.num_states_ == 0) result.SetInitial(result.AddState());
  int sink = result.AddState();
  for (int q = 0; q < result.num_states_; ++q) {
    for (int a = 0; a < num_symbols_; ++a) {
      if (result.Next(q, a) == kNoState) result.SetTransition(q, a, sink);
    }
  }
  return result;
}

Dfa Dfa::Trimmed() const {
  if (num_states_ == 0) return Dfa::EmptyLanguage(num_symbols_);
  // Forward reachability from the initial state, recording every
  // transition out of a reachable state. Only those matter backwards: a
  // kept state is reachable, and so is every state on its paths to a
  // final state.
  std::vector<bool> reach(num_states_, false);
  std::vector<std::pair<int, int>> edges;  // (source, target)
  std::vector<int> stack = {initial_};
  reach[initial_] = true;
  while (!stack.empty()) {
    int q = stack.back();
    stack.pop_back();
    for (int a = 0; a < num_symbols_; ++a) {
      int r = Next(q, a);
      if (r == kNoState) continue;
      edges.emplace_back(q, r);
      if (!reach[r]) {
        reach[r] = true;
        stack.push_back(r);
      }
    }
  }
  // Backward reachability from final states, over the reversed edges in
  // one CSR array: the predecessors of r are
  // sources[offset[r] .. offset[r + 1]). Counted into offset[r], summed
  // to the end of each list, then filled backwards so each entry ends at
  // the start of its list.
  std::vector<int> offset(num_states_ + 1, 0);
  for (const auto& [q, r] : edges) ++offset[r];
  for (int q = 1; q < num_states_; ++q) offset[q] += offset[q - 1];
  offset[num_states_] = offset[num_states_ - 1];
  std::vector<int> sources(edges.size());
  for (const auto& [q, r] : edges) sources[--offset[r]] = q;
  std::vector<bool> coreach(num_states_, false);
  for (int q = 0; q < num_states_; ++q) {
    if (final_[q]) {
      coreach[q] = true;
      stack.push_back(q);
    }
  }
  while (!stack.empty()) {
    int q = stack.back();
    stack.pop_back();
    for (int i = offset[q]; i < offset[q + 1]; ++i) {
      const int p = sources[i];
      if (!coreach[p]) {
        coreach[p] = true;
        stack.push_back(p);
      }
    }
  }

  std::vector<int> remap(num_states_, kNoState);
  int next_id = 0;
  // The initial state is always kept so the result is well-formed.
  remap[initial_] = next_id++;
  for (int q = 0; q < num_states_; ++q) {
    if (q != initial_ && reach[q] && coreach[q]) remap[q] = next_id++;
  }

  Dfa result(next_id, num_symbols_);
  result.SetInitial(0);
  for (int q = 0; q < num_states_; ++q) {
    if (remap[q] == kNoState) continue;
    if (final_[q]) result.SetFinal(remap[q]);
    // Keep only transitions between useful states.
    if (!(reach[q] && coreach[q])) continue;
    for (int a = 0; a < num_symbols_; ++a) {
      int r = Next(q, a);
      if (r != kNoState && reach[r] && coreach[r]) {
        result.SetTransition(remap[q], a, remap[r]);
      }
    }
  }
  return result;
}

bool Dfa::IsEmpty() const {
  Word unused;
  return !ShortestWord(&unused);
}

Nfa Dfa::ToNfa() const {
  Nfa nfa(std::max(num_states_, 1), num_symbols_);
  if (num_states_ == 0) return nfa;
  nfa.AddInitial(initial_);
  for (int q = 0; q < num_states_; ++q) {
    if (final_[q]) nfa.SetFinal(q);
    for (int a = 0; a < num_symbols_; ++a) {
      int r = Next(q, a);
      if (r != kNoState) nfa.AddTransition(q, a, r);
    }
  }
  return nfa;
}

bool Dfa::ShortestWord(Word* out) const {
  if (num_states_ == 0) return false;
  // BFS exploring symbols in increasing order yields the length-lex
  // smallest witness.
  std::vector<int> parent(num_states_, kNoState);
  std::vector<int> via_symbol(num_states_, kNoSymbol);
  std::vector<bool> seen(num_states_, false);
  std::deque<int> queue = {initial_};
  seen[initial_] = true;
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    if (final_[q]) {
      Word word;
      for (int s = q; parent[s] != kNoState; s = parent[s]) {
        word.push_back(via_symbol[s]);
      }
      std::reverse(word.begin(), word.end());
      *out = std::move(word);
      return true;
    }
    for (int a = 0; a < num_symbols_; ++a) {
      int r = Next(q, a);
      if (r != kNoState && !seen[r]) {
        seen[r] = true;
        parent[r] = q;
        via_symbol[r] = a;
        queue.push_back(r);
      }
    }
  }
  return false;
}

std::vector<Word> Dfa::WordsUpToLength(int max_length) const {
  std::vector<Word> result;
  if (num_states_ == 0) return result;
  // Breadth-first over words (length-lex order).
  std::deque<std::pair<Word, int>> queue;
  queue.emplace_back(Word{}, initial_);
  while (!queue.empty()) {
    auto [word, state] = std::move(queue.front());
    queue.pop_front();
    if (final_[state]) result.push_back(word);
    if (static_cast<int>(word.size()) == max_length) continue;
    for (int a = 0; a < num_symbols_; ++a) {
      int r = Next(state, a);
      if (r == kNoState) continue;
      Word next = word;
      next.push_back(a);
      queue.emplace_back(std::move(next), r);
    }
  }
  return result;
}

std::string Dfa::ToString() const {
  std::ostringstream os;
  os << "DFA states=" << num_states_ << " symbols=" << num_symbols_
     << " initial=" << initial_ << "\n";
  for (int q = 0; q < num_states_; ++q) {
    os << "  " << q << (final_[q] ? " [final]" : "") << ":";
    for (int a = 0; a < num_symbols_; ++a) {
      int r = Next(q, a);
      if (r != kNoState) os << " -" << a << "->" << r;
    }
    os << "\n";
  }
  return os.str();
}

uint64_t DfaStructuralHash(const Dfa& dfa) {
  uint64_t h = MixU64(PackPair(dfa.num_states(), dfa.num_symbols()));
  h = MixU64(h ^ static_cast<uint64_t>(dfa.initial()));
  for (int q = 0; q < dfa.num_states(); ++q) {
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      h = MixU64(h ^ static_cast<uint64_t>(
                         static_cast<uint32_t>(dfa.Next(q, a))));
    }
    h = MixU64(h ^ (dfa.IsFinal(q) ? 0x2ull : 0x3ull));
  }
  return h;
}

}  // namespace stap
