#include "stap/automata/minimize.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>

#include "stap/automata/determinize.h"
#include "stap/automata/state_set_hash.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

// Interns fixed-width int spans (Moore signatures) to dense ids. All
// signatures of one refinement round have the same width, so they live
// back-to-back in a flat arena — no per-state vector allocation, and the
// probe compares with memcmp over contiguous memory.
class SignatureInterner {
 public:
  SignatureInterner(size_t width, int expected)
      : width_(width), table_(TableSizeFor(expected), -1) {
    arena_.reserve(width * static_cast<size_t>(expected));
    hashes_.reserve(static_cast<size_t>(expected));
  }

  int size() const { return static_cast<int>(hashes_.size()); }

  // Interns `sig` (exactly `width_` ints), returning its dense id.
  int Intern(const int* sig) {
    const uint64_t hash = HashIntSpan(sig, width_);
    const size_t mask = table_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (true) {
      int32_t id = table_[i];
      if (id < 0) break;
      if (hashes_[id] == hash &&
          std::memcmp(arena_.data() + id * width_, sig,
                      width_ * sizeof(int)) == 0) {
        return id;
      }
      i = (i + 1) & mask;
    }
    const int id = static_cast<int>(hashes_.size());
    arena_.insert(arena_.end(), sig, sig + width_);
    hashes_.push_back(hash);
    table_[i] = id;
    if (hashes_.size() * 10 >= table_.size() * 7) Grow();
    return id;
  }

 private:
  static size_t TableSizeFor(int expected) {
    size_t size = 64;
    while (size * 7 < static_cast<size_t>(expected) * 10) size *= 2;
    return size;
  }

  void Grow() {
    table_.assign(table_.size() * 2, -1);
    const size_t mask = table_.size() - 1;
    for (size_t id = 0; id < hashes_.size(); ++id) {
      size_t i = static_cast<size_t>(hashes_[id]) & mask;
      while (table_[i] >= 0) i = (i + 1) & mask;
      table_[i] = static_cast<int32_t>(id);
    }
  }

  size_t width_;
  std::vector<int> arena_;        // id * width_ .. (id+1) * width_
  std::vector<uint64_t> hashes_;  // id -> full hash
  std::vector<int32_t> table_;    // open addressing; -1 = empty
};

// Renumbers the states of a (partial, trimmed) DFA in BFS order, symbols
// ascending. For a minimal DFA this numbering is canonical.
Dfa CanonicalizeNumbering(const Dfa& dfa) {
  const int num_symbols = dfa.num_symbols();
  std::vector<int> remap(dfa.num_states(), kNoState);
  std::vector<int> order;
  std::deque<int> queue = {dfa.initial()};
  remap[dfa.initial()] = 0;
  order.push_back(dfa.initial());
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    for (int a = 0; a < num_symbols; ++a) {
      int r = dfa.Next(q, a);
      if (r != kNoState && remap[r] == kNoState) {
        remap[r] = static_cast<int>(order.size());
        order.push_back(r);
        queue.push_back(r);
      }
    }
  }
  Dfa result(static_cast<int>(order.size()), num_symbols);
  result.SetInitial(0);
  for (int q : order) {
    if (dfa.IsFinal(q)) result.SetFinal(remap[q]);
    for (int a = 0; a < num_symbols; ++a) {
      int r = dfa.Next(q, a);
      if (r != kNoState && remap[r] != kNoState) {
        result.SetTransition(remap[q], a, remap[r]);
      }
    }
  }
  return result;
}

}  // namespace

StatusOr<Dfa> Minimize(const Dfa& input, Budget* budget) {
  static Counter* const calls = GetCounter("minimize.calls");
  static Counter* const rounds = GetCounter("minimize.rounds");
  calls->Increment();
  ScopedSpan span("minimize");
  span.AddArg("states_in", input.num_states());
  int64_t rounds_run = 0;

  Dfa dfa = input.Trimmed().Completed();
  const int n = dfa.num_states();
  const int num_symbols = dfa.num_symbols();

  // Moore partition refinement. classes[q] is the block of q.
  std::vector<int> classes(n);
  for (int q = 0; q < n; ++q) classes[q] = dfa.IsFinal(q) ? 1 : 0;

  int num_classes = 2;
  // Signature of a state: (its class, classes of its successors).
  // One reusable scratch row; signatures are interned through a flat
  // arena table, so the refinement loop performs no allocation per state.
  std::vector<int> signature(static_cast<size_t>(num_symbols) + 1);
  std::vector<int> next_classes(n);
  while (true) {
    // Minimization never grows the state count, so only the wall clock
    // can exhaust the budget; one check per refinement round suffices.
    rounds->Increment();
    ++rounds_run;
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    SignatureInterner signature_ids(signature.size(), n);
    for (int q = 0; q < n; ++q) {
      signature[0] = classes[q];
      for (int a = 0; a < num_symbols; ++a) {
        signature[static_cast<size_t>(a) + 1] = classes[dfa.Next(q, a)];
      }
      next_classes[q] = signature_ids.Intern(signature.data());
    }
    int next_num_classes = signature_ids.size();
    std::swap(classes, next_classes);
    if (next_num_classes == num_classes) break;
    num_classes = next_num_classes;
  }

  // Build the quotient automaton.
  Dfa quotient(num_classes, num_symbols);
  quotient.SetInitial(classes[dfa.initial()]);
  for (int q = 0; q < n; ++q) {
    if (dfa.IsFinal(q)) quotient.SetFinal(classes[q]);
    for (int a = 0; a < num_symbols; ++a) {
      quotient.SetTransition(classes[q], a, classes[dfa.Next(q, a)]);
    }
  }

  Dfa trimmed = quotient.Trimmed();
  span.AddArg("rounds", rounds_run);
  span.AddArg("states_out", trimmed.num_states());
  if (trimmed.IsEmpty()) return Dfa::EmptyLanguage(num_symbols);
  return CanonicalizeNumbering(trimmed);
}

StatusOr<Dfa> MinimizeNfa(const Nfa& nfa, Budget* budget, const Nfa* context) {
  StatusOr<Dfa> determinized = Determinize(nfa, budget, context);
  if (!determinized.ok()) return determinized.status();
  return Minimize(*determinized, budget);
}

}  // namespace stap
