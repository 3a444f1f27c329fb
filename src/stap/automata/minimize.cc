#include "stap/automata/minimize.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "stap/automata/determinize.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

StatusOr<int> RefinePartition(const Dfa& dfa, int num_blocks,
                              std::vector<int>* block, Budget* budget,
                              int64_t* splitters) {
  const int n = dfa.num_states();
  const int num_symbols = dfa.num_symbols();
  std::vector<int>& block_of = *block;
  STAP_CHECK(static_cast<int>(block_of.size()) == n);
  if (splitters != nullptr) *splitters = 0;
  STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));

  // Inverse transitions in one CSR array, symbol-major: the states p with
  // δ(p, a) = t are sources[offset[a·n + t] .. offset[a·n + t + 1]).
  // Counted into offset[a·n + t], summed to the end of each list, then
  // filled backwards so each entry ends at the start of its list.
  const size_t cells = static_cast<size_t>(num_symbols) * n;
  std::vector<int> offset(cells + 1, 0);
  for (int p = 0; p < n; ++p) {
    for (int a = 0; a < num_symbols; ++a) {
      const int t = dfa.Next(p, a);
      if (t != kNoState) ++offset[static_cast<size_t>(a) * n + t];
    }
  }
  for (size_t i = 1; i < cells; ++i) offset[i] += offset[i - 1];
  const int num_transitions = cells == 0 ? 0 : offset[cells - 1];
  offset[cells] = num_transitions;
  std::vector<int> sources(num_transitions);
  for (int p = n - 1; p >= 0; --p) {
    for (int a = 0; a < num_symbols; ++a) {
      const int t = dfa.Next(p, a);
      if (t != kNoState) {
        sources[--offset[static_cast<size_t>(a) * n + t]] = p;
      }
    }
  }
  auto symbol_used = [&](int a) {
    return offset[static_cast<size_t>(a) * n] !=
           offset[static_cast<size_t>(a + 1) * n];
  };

  // The refinable partition: block b owns elems[first .. end), and the
  // states the current splitter marks are swapped to the front of their
  // block, [first, mid). Each split adds one block, so there are never
  // more than num_blocks + n and `blocks` never reallocates.
  struct Block {
    int first = 0;
    int end = 0;
    int mid = 0;
    bool queued = false;  // on the worklist
    int size() const { return end - first; }
  };
  std::vector<Block> blocks(num_blocks);
  blocks.reserve(static_cast<size_t>(num_blocks) + n);
  std::vector<int> elems(n), position(n);
  for (int q = 0; q < n; ++q) {
    STAP_CHECK(block_of[q] >= 0 && block_of[q] < num_blocks);
    ++blocks[block_of[q]].end;
  }
  for (int b = 1; b < num_blocks; ++b) blocks[b].end += blocks[b - 1].end;
  for (int q = n - 1; q >= 0; --q) {
    const int pos = --blocks[block_of[q]].end;
    elems[pos] = q;
    position[q] = pos;
  }
  for (int b = 0; b < num_blocks; ++b) {  // each end is now its block's start
    blocks[b].first = blocks[b].mid = blocks[b].end;
    blocks[b].end = b + 1 < num_blocks ? blocks[b + 1].end : n;
  }

  // Hopcroft's worklist of splitters, a block at most once. Stability
  // under every block but one follows from stability under the rest
  // (δ completed by the sink is total), so the largest block is left
  // off.
  std::vector<int> worklist;
  int largest = 0;
  for (int b = 1; b < num_blocks; ++b) {
    if (blocks[b].size() > blocks[largest].size()) largest = b;
  }
  for (int b = 0; b < num_blocks; ++b) {
    if (b != largest && blocks[b].size() > 0) {
      worklist.push_back(b);
      blocks[b].queued = true;
    }
  }

  std::vector<int> touched;
  auto mark = [&](int p) {
    Block& block = blocks[block_of[p]];
    const int pos = position[p];
    const int m = block.mid;
    if (pos < m) return;  // already marked
    if (m == block.first) touched.push_back(block_of[p]);
    const int other = elems[m];
    elems[m] = p;
    position[p] = m;
    elems[pos] = other;
    position[other] = pos;
    block.mid = m + 1;
  };
  // Splits every touched block into its marked and unmarked states. The
  // marked part gets the new id; of a block not on the worklist only the
  // smaller half is queued (Hopcroft's rule), since stability under the
  // old block and one half implies stability under the other.
  auto split_touched = [&]() {
    for (int b : touched) {
      if (blocks[b].mid == blocks[b].end) {
        blocks[b].mid = blocks[b].first;
        continue;
      }
      const int marked = static_cast<int>(blocks.size());
      Block part;
      part.first = part.mid = blocks[b].first;
      part.end = blocks[b].mid;
      blocks[b].first = blocks[b].mid;
      blocks.push_back(part);
      for (int i = part.first; i < part.end; ++i) block_of[elems[i]] = marked;
      const int add =
          blocks[b].queued || part.size() <= blocks[b].size() ? marked : b;
      worklist.push_back(add);
      blocks[add].queued = true;
    }
    touched.clear();
  };

  int64_t popped = 0;
  // The virtual sink is a splitter of its own: on each symbol it
  // separates the states that lack a transition from those that have
  // one. Its block never splits, so it is processed exactly once.
  if (num_transitions < static_cast<int>(cells)) {
    ++popped;
    for (int a = 0; a < num_symbols; ++a) {
      if (!symbol_used(a)) continue;
      for (int p = 0; p < n; ++p) {
        if (dfa.Next(p, a) == kNoState) mark(p);
      }
      split_touched();
    }
  }
  // A popped block may split while its own predecessors are marked, so
  // each symbol's preimage is taken from a snapshot of it.
  std::vector<int> splitter;
  while (!worklist.empty()) {
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    ++popped;
    const int b = worklist.back();
    worklist.pop_back();
    blocks[b].queued = false;
    splitter.assign(elems.begin() + blocks[b].first,
                    elems.begin() + blocks[b].end);
    for (int a = 0; a < num_symbols; ++a) {
      if (!symbol_used(a)) continue;
      const size_t row = static_cast<size_t>(a) * n;
      for (int t : splitter) {
        for (int i = offset[row + t]; i < offset[row + t + 1]; ++i) {
          mark(sources[i]);
        }
      }
      split_touched();
    }
  }
  if (splitters != nullptr) *splitters = popped;

  // Renumber the blocks in order of their least state.
  std::vector<int> renumber(blocks.size(), -1);
  int count = 0;
  for (int q = 0; q < n; ++q) {
    int& id = renumber[block_of[q]];
    if (id < 0) id = count++;
    block_of[q] = id;
  }
  return count;
}

Dfa CanonicalQuotient(const Dfa& dfa, const std::vector<int>& block,
                      int num_blocks, std::vector<int>* state_of_block) {
  const int num_symbols = dfa.num_symbols();
  // Each block's least state stands for the whole block.
  std::vector<int> member(num_blocks, kNoState);
  for (int q = dfa.num_states() - 1; q >= 0; --q) member[block[q]] = q;
  // BFS over blocks, symbols ascending; `order` is the queue.
  std::vector<int> state(num_blocks, kNoState);
  std::vector<int> order = {block[dfa.initial()]};
  state[order[0]] = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const int q = member[order[i]];
    for (int a = 0; a < num_symbols; ++a) {
      const int r = dfa.Next(q, a);
      if (r != kNoState && state[block[r]] == kNoState) {
        state[block[r]] = static_cast<int>(order.size());
        order.push_back(block[r]);
      }
    }
  }
  Dfa result(static_cast<int>(order.size()), num_symbols);
  for (size_t i = 0; i < order.size(); ++i) {
    const int q = member[order[i]];
    if (dfa.IsFinal(q)) result.SetFinal(static_cast<int>(i));
    for (int a = 0; a < num_symbols; ++a) {
      const int r = dfa.Next(q, a);
      if (r != kNoState) {
        result.SetTransition(static_cast<int>(i), a, state[block[r]]);
      }
    }
  }
  if (state_of_block != nullptr) *state_of_block = std::move(state);
  return result;
}

StatusOr<Dfa> Minimize(const Dfa& input, Budget* budget) {
  static Counter* const calls = GetCounter("minimize.calls");
  static Counter* const splitter_count = GetCounter("minimize.splitters");
  calls->Increment();
  ScopedSpan span("minimize");
  span.AddArg("states_in", input.num_states());

  const Dfa dfa = input.Trimmed();
  const int n = dfa.num_states();
  std::vector<int> block(n);
  for (int q = 0; q < n; ++q) block[q] = dfa.IsFinal(q) ? 1 : 0;
  int64_t splitters = 0;
  StatusOr<int> num_classes =
      RefinePartition(dfa, 2, &block, budget, &splitters);
  splitter_count->Increment(splitters);
  if (!num_classes.ok()) return num_classes.status();

  // The quotient of a trimmed DFA is trimmed already. The empty language
  // trims to a lone non-final state, so its quotient is that state.
  span.AddArg("splitters", splitters);
  span.AddArg("states_out", *num_classes);
  return CanonicalQuotient(dfa, block, *num_classes);
}

StatusOr<Dfa> MinimizeNfa(const Nfa& nfa, Budget* budget) {
  StatusOr<Dfa> determinized = Determinize(nfa, budget);
  if (!determinized.ok()) return determinized.status();
  return Minimize(*determinized, budget);
}

}  // namespace stap
