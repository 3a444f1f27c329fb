// Experiment E12 (Section 5): content-model formalisms. Measures the
// RE -> Glushkov -> DFA -> minimal DFA pipeline on random expressions,
// the one-unambiguity (UPA) test, and the NFA -> DFA blow-up family that
// underlies Theorem 3.2 (the n-th-symbol-from-the-end language).
#include <benchmark/benchmark.h>

#include <random>

#include "stap/automata/determinize.h"
#include "stap/automata/minimize.h"
#include "stap/regex/ast.h"
#include "stap/regex/bkw.h"
#include "stap/regex/from_dfa.h"
#include "stap/regex/glushkov.h"

namespace stap {
namespace {

RegexPtr RandomRegex(std::mt19937* rng, int depth, int num_symbols) {
  int choice = static_cast<int>((*rng)() % (depth <= 0 ? 2 : 7));
  switch (choice) {
    case 0:
    case 1:
      return Regex::Symbol(static_cast<int>((*rng)() % num_symbols));
    case 2:
      return Regex::Star(RandomRegex(rng, depth - 1, num_symbols));
    case 3:
      return Regex::Optional(RandomRegex(rng, depth - 1, num_symbols));
    case 4:
      return Regex::Union({RandomRegex(rng, depth - 1, num_symbols),
                           RandomRegex(rng, depth - 1, num_symbols)});
    default:
      return Regex::Concat({RandomRegex(rng, depth - 1, num_symbols),
                            RandomRegex(rng, depth - 1, num_symbols)});
  }
}

void BM_RegexToDfaPipeline(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  std::mt19937 rng(55 + depth);
  RegexPtr regex = RandomRegex(&rng, depth, 3);
  int64_t dfa_states = 0;
  for (auto _ : state) {
    Dfa dfa = *RegexToDfa(*regex, 3);
    dfa_states = dfa.num_states();
    benchmark::DoNotOptimize(dfa_states);
  }
  state.counters["regex_nodes"] = regex->NumNodes();
  state.counters["dfa_states"] = static_cast<double>(dfa_states);
  state.counters["one_unambiguous"] = IsOneUnambiguous(*regex, 3) ? 1 : 0;
}

void BM_DeterminizationBlowup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // (a+b)* a (a+b)^(n-1): minimal DFA has 2^n states.
  std::vector<RegexPtr> parts;
  RegexPtr ab = Regex::Union({Regex::Symbol(0), Regex::Symbol(1)});
  parts.push_back(Regex::Star(ab));
  parts.push_back(Regex::Symbol(0));
  for (int i = 0; i < n - 1; ++i) parts.push_back(ab);
  RegexPtr regex = Regex::Concat(std::move(parts));
  Nfa glushkov = *GlushkovAutomaton(*regex, 2);
  int64_t dfa_states = 0;
  for (auto _ : state) {
    Dfa dfa = *Minimize(*Determinize(glushkov));
    dfa_states = dfa.num_states();
    benchmark::DoNotOptimize(dfa_states);
  }
  state.counters["n"] = n;
  state.counters["nfa_states"] = glushkov.num_states();
  state.counters["dfa_states"] = static_cast<double>(dfa_states);
}

void BM_DfaToRegexRoundTrip(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  std::mt19937 rng(99 + depth);
  RegexPtr regex = RandomRegex(&rng, depth, 3);
  Dfa dfa = *RegexToDfa(*regex, 3);
  int64_t nodes = 0;
  for (auto _ : state) {
    RegexPtr back = DfaToRegex(dfa);
    nodes = back->NumNodes();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["dfa_states"] = dfa.num_states();
  state.counters["regex_nodes_out"] = static_cast<double>(nodes);
}

void BM_BkwOneUnambiguityTest(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  std::mt19937 rng(7 + depth);
  RegexPtr regex = RandomRegex(&rng, depth, 2);
  Dfa dfa = *RegexToDfa(*regex, 2);
  bool verdict = false;
  for (auto _ : state) {
    verdict = *IsOneUnambiguousLanguage(dfa);
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["dfa_states"] = dfa.num_states();
  state.counters["one_unambiguous_language"] = verdict ? 1 : 0;
}

BENCHMARK(BM_BkwOneUnambiguityTest)
    ->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_RegexToDfaPipeline)
    ->DenseRange(2, 10, 2)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DeterminizationBlowup)
    ->DenseRange(2, 14, 2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DfaToRegexRoundTrip)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace stap
