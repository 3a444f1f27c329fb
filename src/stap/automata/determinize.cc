#include "stap/automata/determinize.h"

#include <cstdint>
#include <utility>

#include "stap/automata/bitset.h"
#include "stap/automata/interner.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

// One instrument set shared by every entry point. The schema counters are
// resolved eagerly at static-init time (the registry outlives and
// predates any user, Global() being a function-local static), so the
// serve daemon's /metrics exposition lists them from the first scrape
// even before the first schema-guided call runs.
struct DeterminizeMetrics {
  Counter* calls = GetCounter("determinize.calls");
  Counter* states_created = GetCounter("determinize.states_created");
  Counter* schema_calls = GetCounter("determinize.schema_calls");
  Counter* schema_pruned_states = GetCounter("determinize.schema_pruned_states");
  Counter* schema_pruned_transitions =
      GetCounter("determinize.schema_pruned_transitions");
  Histogram* dfa_states = GetHistogram("determinize.dfa_states");
  Histogram* subset_size = GetHistogram("determinize.subset_size");
};

DeterminizeMetrics& Metrics() {
  static DeterminizeMetrics metrics;
  return metrics;
}

const DeterminizeMetrics& g_eager_metrics = Metrics();

// The single budgeted core behind all four public entry points. A null
// `context` runs the dense subset construction; a non-null context runs
// the joint (context subset, NFA subset) construction with sink
// collapsing. Both share the interners, charging, metrics, and span
// contract, so extensions land in one place.
StatusOr<Dfa> DeterminizeCore(const Nfa& nfa, const Nfa* context,
                              Budget* budget, std::vector<StateSet>* subsets,
                              std::vector<StateSet>* context_subsets,
                              SchemaDeterminizeStats* stats) {
  DeterminizeMetrics& metrics = Metrics();
  metrics.calls->Increment();
  // One span name for both paths: `stap explain` cross-checks the
  // states_created args of every "determinize" row against the registry
  // counter, and the schema path must stay inside that invariant. The
  // context_states arg distinguishes the two in the phase table.
  ScopedSpan span("determinize");
  span.AddArg("nfa_states", nfa.num_states());

  const int num_symbols = nfa.num_symbols();
  const DenseNfa dense(nfa);
  using SubsetInterner = Interner<DenseStateSet, DenseStateSetHash>;
  SubsetInterner interner;

  Dfa dfa(0, num_symbols);
  // state_subset[id] is the interned NFA-subset id of DFA state id, or -1
  // for the shared sink of the schema path.
  std::vector<int> state_subset;
  Status charge_status;
  auto add_state = [&](int subset_id, bool is_final) {
    const int id = dfa.AddState();
    state_subset.push_back(subset_id);
    if (is_final) dfa.SetFinal(id);
    metrics.states_created->Increment();
    if (charge_status.ok()) charge_status = Budget::ChargeStates(budget);
    return id;
  };

  if (context == nullptr) {
    // Dense path. Subset ids double as the worklist: processing state id
    // may discover new subsets, which are appended and processed in turn.
    // Subsets are dense bitsets: the successor computation is an OR of
    // transition rows and interning hashes whole blocks — no sorting, no
    // per-element compares. References into the interner stay valid
    // across inserts.
    interner.Intern(dense.initial());
    add_state(0, dense.AnyFinal(dense.initial()));
    dfa.SetInitial(0);
    STAP_RETURN_IF_ERROR(charge_status);

    DenseStateSet scratch(nfa.num_states());
    for (int id = 0; id < interner.size(); ++id) {
      const DenseStateSet& current = interner[id];
      for (int a = 0; a < num_symbols; ++a) {
        dense.NextInto(current, a, &scratch);
        auto [next_id, inserted] = interner.Intern(scratch);
        if (inserted) {
          add_state(next_id, dense.AnyFinal(scratch));
          STAP_RETURN_IF_ERROR(charge_status);
        }
        dfa.SetTransition(id, a, next_id);
      }
    }
  } else {
    // Schema-guided path: the worklist holds (context subset id, NFA
    // subset id) pairs; a successor with a dead context half collapses
    // into one shared non-final sink, so subsets reachable only outside
    // the schema are never materialized.
    STAP_CHECK(context->num_symbols() == num_symbols);
    metrics.schema_calls->Increment();
    span.AddArg("context_states", context->num_states());

    const DenseNfa ctx(*context);
    SubsetInterner ctx_interner;
    // Distinct NFA subsets seen at the pruning frontier; interned so the
    // pruned-states counter reports unique subsets, not transitions.
    SubsetInterner pruned_interner;
    // DFA state id -> PackPair(ctx id, sub id); the sink is PackPair(-1, -1).
    Interner<uint64_t, U64Hash> pairs;
    auto pair_at = [&](int id) {
      const uint64_t key = pairs[id];
      return std::pair<int, int>(static_cast<int32_t>(key >> 32),
                                 static_cast<int32_t>(key));
    };
    int64_t pruned_transitions = 0;
    int64_t max_subset_size = 0;
    int sink = kNoState;
    auto sink_state = [&]() {
      if (sink == kNoState) {
        sink = add_state(-1, false);
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
        add_state(sub_id, dense.AnyFinal(interner[sub_id]));
        const int64_t size = interner[sub_id].Count();
        metrics.subset_size->Record(static_cast<double>(size));
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
      DenseStateSet ctx_scratch(context->num_states());
      // `pairs` doubles as the worklist: pair id i is DFA state i (both
      // grow in lockstep). The sink (pair (-1, -1)) is pre-wired and
      // skipped.
      for (int id = 0; id < pairs.size(); ++id) {
        const auto [ctx_id, sub_id] = pair_at(id);
        if (sub_id < 0) continue;
        for (int a = 0; a < num_symbols; ++a) {
          ctx.NextInto(ctx_interner[ctx_id], a, &ctx_scratch);
          if (ctx_scratch.Empty()) {
            // Dead under the schema: whatever the NFA half would do,
            // no admitted word continues this way.
            dense.NextInto(interner[sub_id], a, &scratch);
            if (!scratch.Empty()) {
              ++pruned_transitions;
              if (pruned_interner.Intern(scratch).second) {
                metrics.schema_pruned_states->Increment();
              }
            }
            dfa.SetTransition(id, a, sink_state());
            STAP_RETURN_IF_ERROR(charge_status);
            continue;
          }
          dense.NextInto(interner[sub_id], a, &scratch);
          if (scratch.Empty()) {
            // The NFA died on a live context word: every extension is
            // rejected, same as the dense empty subset — one sink
            // serves both collapse rules.
            dfa.SetTransition(id, a, sink_state());
            STAP_RETURN_IF_ERROR(charge_status);
            continue;
          }
          const int next_ctx = ctx_interner.Intern(ctx_scratch).first;
          const int next_sub = interner.Intern(scratch).first;
          dfa.SetTransition(id, a, pair_state(next_ctx, next_sub));
          STAP_RETURN_IF_ERROR(charge_status);
        }
      }
    }
    metrics.schema_pruned_transitions->Increment(pruned_transitions);
    span.AddArg("pruned_states", pruned_interner.size());
    span.AddArg("pruned_transitions", pruned_transitions);
    if (stats != nullptr) {
      stats->pair_states = dfa.num_states();
      stats->pruned_states = pruned_interner.size();
      stats->pruned_transitions = pruned_transitions;
      stats->max_subset_size = max_subset_size;
    }
    if (context_subsets != nullptr) {
      context_subsets->reserve(context_subsets->size() + pairs.size());
      for (int id = 0; id < pairs.size(); ++id) {
        const int ctx_id = pair_at(id).first;
        context_subsets->push_back(
            ctx_id >= 0 ? ctx_interner[ctx_id].ToStateSet() : StateSet{});
      }
    }
  }

  metrics.dfa_states->Record(dfa.num_states());
  // The same quantity the registry counts: subset states created (the
  // `stap explain` table cross-checks the two).
  span.AddArg("states_created", dfa.num_states());
  if (subsets != nullptr) {
    subsets->reserve(subsets->size() + state_subset.size());
    for (int subset_id : state_subset) {
      subsets->push_back(subset_id >= 0 ? interner[subset_id].ToStateSet()
                                        : StateSet{});
    }
  }
  return dfa;
}

}  // namespace

StatusOr<Dfa> Determinize(const Nfa& nfa, Budget* budget, const Nfa* context,
                          std::vector<StateSet>* subsets) {
  return DeterminizeCore(nfa, context, budget, subsets, nullptr, nullptr);
}

StatusOr<Dfa> DeterminizeUnderSchema(const Nfa& nfa, const Nfa& context,
                                     Budget* budget,
                                     std::vector<StateSet>* subsets,
                                     std::vector<StateSet>* context_subsets,
                                     SchemaDeterminizeStats* stats) {
  return DeterminizeCore(nfa, &context, budget, subsets, context_subsets,
                         stats);
}

}  // namespace stap
