#include "oracles/determinize_schema.h"

#include <utility>

#include "stap/automata/bitset.h"
#include "stap/automata/interner.h"
#include "stap/base/check.h"

namespace stap {

StatusOr<Dfa> DeterminizeUnderSchema(const Nfa& nfa, const Nfa& context,
                                     Budget* budget,
                                     std::vector<StateSet>* subsets,
                                     std::vector<StateSet>* context_subsets,
                                     SchemaDeterminizeStats* stats) {
  const int num_symbols = nfa.num_symbols();
  STAP_CHECK(context.num_symbols() == num_symbols);
  const DenseNfa dense(nfa);
  const DenseNfa ctx(context);
  using SubsetInterner = Interner<DenseStateSet, DenseStateSetHash>;
  SubsetInterner interner;
  SubsetInterner ctx_interner;
  // Distinct NFA subsets seen at the pruning frontier; interned so the
  // pruned-states count reports unique subsets, not transitions.
  SubsetInterner pruned_interner;
  // DFA state id -> PackPair(ctx id, sub id); the sink is PackPair(-1, -1).
  // Pair id i is DFA state i (both grow in lockstep), so `pairs` doubles
  // as the worklist.
  Interner<uint64_t, U64Hash> pairs;
  auto pair_at = [&](int id) {
    const uint64_t key = pairs[id];
    return std::pair<int, int>(static_cast<int32_t>(key >> 32),
                               static_cast<int32_t>(key));
  };

  Dfa dfa(0, num_symbols);
  Status charge_status;
  int64_t pruned_transitions = 0;
  int64_t max_subset_size = 0;
  auto add_state = [&](bool is_final) {
    const int id = dfa.AddState();
    if (is_final) dfa.SetFinal(id);
    if (charge_status.ok()) charge_status = Budget::ChargeStates(budget);
    return id;
  };
  int sink = kNoState;
  auto sink_state = [&]() {
    if (sink == kNoState) {
      sink = add_state(false);
      pairs.Intern(PackPair(-1, -1));
      for (int a = 0; a < num_symbols; ++a) {
        dfa.SetTransition(sink, a, sink);
      }
    }
    return sink;
  };
  auto pair_state = [&](int ctx_id, int sub_id) {
    auto [id, inserted] = pairs.Intern(PackPair(ctx_id, sub_id));
    if (inserted) {
      add_state(dense.AnyFinal(interner[sub_id]));
      const int64_t size = interner[sub_id].Count();
      if (size > max_subset_size) max_subset_size = size;
    }
    return id;
  };

  if (ctx.initial().Empty() || dense.initial().Empty()) {
    // No word is live (or the NFA is empty at the root): the whole
    // automaton is the sink.
    dfa.SetInitial(sink_state());
    STAP_RETURN_IF_ERROR(charge_status);
  } else {
    const int ctx0 = ctx_interner.Intern(ctx.initial()).first;
    const int sub0 = interner.Intern(dense.initial()).first;
    dfa.SetInitial(pair_state(ctx0, sub0));
    STAP_RETURN_IF_ERROR(charge_status);

    DenseStateSet scratch(nfa.num_states());
    DenseStateSet ctx_scratch(context.num_states());
    for (int id = 0; id < pairs.size(); ++id) {
      const auto [ctx_id, sub_id] = pair_at(id);
      if (sub_id < 0) continue;  // the sink is pre-wired
      for (int a = 0; a < num_symbols; ++a) {
        ctx.NextInto(ctx_interner[ctx_id], a, &ctx_scratch);
        dense.NextInto(interner[sub_id], a, &scratch);
        if (ctx_scratch.Empty()) {
          // Dead under the schema: whatever the NFA half would do, no
          // admitted word continues this way.
          if (!scratch.Empty()) {
            ++pruned_transitions;
            pruned_interner.Intern(scratch);
          }
          dfa.SetTransition(id, a, sink_state());
        } else if (scratch.Empty()) {
          // The NFA died on a live context word: every extension is
          // rejected, same as the dense empty subset — one sink serves
          // both collapse rules.
          dfa.SetTransition(id, a, sink_state());
        } else {
          const int next_ctx = ctx_interner.Intern(ctx_scratch).first;
          const int next_sub = interner.Intern(scratch).first;
          dfa.SetTransition(id, a, pair_state(next_ctx, next_sub));
        }
        STAP_RETURN_IF_ERROR(charge_status);
      }
    }
  }

  if (stats != nullptr) {
    stats->pair_states = dfa.num_states();
    stats->pruned_states = pruned_interner.size();
    stats->pruned_transitions = pruned_transitions;
    stats->max_subset_size = max_subset_size;
  }
  for (int id = 0; id < pairs.size(); ++id) {
    const auto [ctx_id, sub_id] = pair_at(id);
    if (subsets != nullptr) {
      subsets->push_back(sub_id >= 0 ? interner[sub_id].ToStateSet()
                                     : StateSet{});
    }
    if (context_subsets != nullptr) {
      context_subsets->push_back(
          ctx_id >= 0 ? ctx_interner[ctx_id].ToStateSet() : StateSet{});
    }
  }
  return dfa;
}

Nfa BoundedLetterContext(int symbol, int max_count, int num_symbols) {
  STAP_CHECK(symbol >= 0 && symbol < num_symbols);
  STAP_CHECK(max_count >= 0);
  // State i = "i occurrences of `symbol` seen"; all states final, the
  // (max_count+1)-th occurrence has no transition (dead).
  Nfa nfa(max_count + 1, num_symbols);
  nfa.AddInitial(0);
  for (int i = 0; i <= max_count; ++i) {
    nfa.SetFinal(i);
    for (int a = 0; a < num_symbols; ++a) {
      if (a == symbol) {
        if (i < max_count) nfa.AddTransition(i, a, i + 1);
      } else {
        nfa.AddTransition(i, a, i);
      }
    }
  }
  return nfa;
}

}  // namespace stap
