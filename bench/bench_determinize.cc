// Experiment E21: schema-guided determinization
// (oracles/determinize_schema.h) A/B'd against the dense subset
// construction (automata/determinize.h) on the paper's families. The
// headline number is not wall time but `dfa_states` — per dense
// construction the determinize.states_created metrics counter delta,
// per guided one SchemaDeterminizeStats::pair_states — since the point
// of the joint (context × subset) worklist is to never materialize
// subsets the ambient schema kills. Cases:
//   * Theorem 3.2's (a+b)*a(a+b)^n type automaton, dense (2^n states)
//     vs guided by BoundedLetterContext (O(n·k) pairs): the >= 2x case.
//   * The same family under self-context (context = the NFA itself, an
//     exact-mode superset): honest zero-pruning data for DESIGN.md —
//     the joint construction only ever pays overhead here.
//   * Random EDTD type automata, dense vs guided by a bounded-letter
//     ambient corpus restriction (the caller-supplied-context case).
//   * NFA inclusion via the guided oracle vs the antichain engine.
#include <benchmark/benchmark.h>

#include <random>

#include "oracles/determinize_schema.h"
#include "oracles/inclusion.h"
#include "stap/automata/determinize.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/ops.h"
#include "stap/base/metrics.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/type_automaton.h"

namespace stap {
namespace {

int64_t StatesCreated() {
  return GetCounter("determinize.states_created")->value();
}

void BM_DenseTheorem32(benchmark::State& state) {
  TypeAutomaton ta = BuildTypeAutomaton(Theorem32Family(
      static_cast<int>(state.range(0))));
  const int64_t before = StatesCreated();
  int64_t iters = 0;
  for (auto _ : state) {
    Dfa dfa = *Determinize(ta.nfa);
    benchmark::DoNotOptimize(dfa);
    ++iters;
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["dfa_states"] =
      static_cast<double>(StatesCreated() - before) /
      static_cast<double>(iters);
}

void BM_GuidedTheorem32(benchmark::State& state) {
  TypeAutomaton ta = BuildTypeAutomaton(Theorem32Family(
      static_cast<int>(state.range(0))));
  // Ambient schema: documents with at most k = 3 occurrences of `b`.
  Nfa context = BoundedLetterContext(/*symbol=*/1, /*max_count=*/3,
                                     ta.nfa.num_symbols());
  SchemaDeterminizeStats stats;
  for (auto _ : state) {
    StatusOr<Dfa> dfa = DeterminizeUnderSchema(
        ta.nfa, context, nullptr, nullptr, nullptr, &stats);
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["dfa_states"] = static_cast<double>(stats.pair_states);
  state.counters["pruned_subsets"] = static_cast<double>(stats.pruned_states);
}

// Same family under self-context: L(context) = L(nfa) is a superset of
// the target language, so the context half can never die first and
// nothing is pruned — the degenerate case DESIGN.md warns about. The
// joint construction pays pair bookkeeping for the same state count.
void BM_GuidedTheorem32SupersetContext(benchmark::State& state) {
  TypeAutomaton ta = BuildTypeAutomaton(Theorem32Family(
      static_cast<int>(state.range(0))));
  const Nfa& context = ta.nfa;
  SchemaDeterminizeStats stats;
  for (auto _ : state) {
    StatusOr<Dfa> dfa = DeterminizeUnderSchema(
        ta.nfa, context, nullptr, nullptr, nullptr, &stats);
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["dfa_states"] = static_cast<double>(stats.pair_states);
  state.counters["pruned_subsets"] = static_cast<double>(stats.pruned_states);
}

Nfa RandomEdtdTypeNfa(int num_types) {
  std::mt19937 rng(9090 + num_types);
  RandomSchemaParams params;
  params.num_symbols = 4;
  params.num_types = num_types;
  return BuildTypeAutomaton(RandomEdtd(&rng, params)).nfa;
}

void BM_DenseRandomEdtd(benchmark::State& state) {
  Nfa nfa = RandomEdtdTypeNfa(static_cast<int>(state.range(0)));
  const int64_t before = StatesCreated();
  int64_t iters = 0;
  for (auto _ : state) {
    Dfa dfa = *Determinize(nfa);
    benchmark::DoNotOptimize(dfa);
    ++iters;
  }
  state.counters["types"] = static_cast<double>(state.range(0));
  state.counters["dfa_states"] =
      static_cast<double>(StatesCreated() - before) /
      static_cast<double>(iters);
}

// Ambient corpus restriction: vertical paths with at most 2 occurrences
// of symbol 0 — a caller-supplied context, the restricted-mode use case.
void BM_GuidedRandomEdtd(benchmark::State& state) {
  Nfa nfa = RandomEdtdTypeNfa(static_cast<int>(state.range(0)));
  Nfa context = BoundedLetterContext(/*symbol=*/0, /*max_count=*/2,
                                     nfa.num_symbols());
  SchemaDeterminizeStats stats;
  for (auto _ : state) {
    StatusOr<Dfa> dfa = DeterminizeUnderSchema(
        nfa, context, nullptr, nullptr, nullptr, &stats);
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["types"] = static_cast<double>(state.range(0));
  state.counters["dfa_states"] = static_cast<double>(stats.pair_states);
  state.counters["pruned_subsets"] = static_cast<double>(stats.pruned_states);
}

std::pair<Nfa, Nfa> InclusionInstance(int num_states) {
  std::mt19937 rng(7700 + num_states);
  Nfa a = RandomNfa(&rng, num_states, 3);
  Nfa b = RandomNfa(&rng, num_states, 3);
  return {a, NfaUnion(b, a)};  // positive instance: b ⊇ a
}

void BM_InclusionAntichain(benchmark::State& state) {
  auto [a, b] = InclusionInstance(static_cast<int>(state.range(0)));
  bool included = false;
  for (auto _ : state) {
    included = *NfaIncludedInNfa(a, b);
    benchmark::DoNotOptimize(included);
  }
  state.counters["states"] = static_cast<double>(state.range(0));
  state.counters["included"] = included ? 1 : 0;
}

void BM_InclusionSchemaGuided(benchmark::State& state) {
  auto [a, b] = InclusionInstance(static_cast<int>(state.range(0)));
  bool included = false;
  for (auto _ : state) {
    StatusOr<bool> result = NfaIncludedInNfaViaSchemaDeterminize(a, b);
    included = result.ok() && *result;
    benchmark::DoNotOptimize(included);
  }
  state.counters["states"] = static_cast<double>(state.range(0));
  state.counters["included"] = included ? 1 : 0;
}

BENCHMARK(BM_DenseTheorem32)->DenseRange(8, 14, 2);
BENCHMARK(BM_GuidedTheorem32)->DenseRange(8, 14, 2);
BENCHMARK(BM_GuidedTheorem32SupersetContext)->DenseRange(8, 12, 2);
BENCHMARK(BM_DenseRandomEdtd)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_GuidedRandomEdtd)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_InclusionAntichain)->Arg(8)->Arg(12);
BENCHMARK(BM_InclusionSchemaGuided)->Arg(8)->Arg(12);

}  // namespace
}  // namespace stap
