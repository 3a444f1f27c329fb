// Hot-path kernels, hashed vs. the original std::map-based versions (the
// reference kernels in tests/oracles). Instances are seeded random NFAs; run with
// --benchmark_format=json for machine-readable before/after numbers (see
// bench/results/hotpath.json and EXPERIMENTS.md).
//
// This bench has a custom main (no benchmark_main) so it accepts the same
// global resource flags as the stap CLI, stripped before the benchmark
// library parses the remainder:
//   --budget-ms=N --max-states=N --max-sets=N   applied per iteration of
//                                               the *Budgeted benchmarks
//   --metrics-json[=F]                          dump the metrics registry
//                                               after the run (F=- or bare
//                                               flag writes to stderr)
//   --trace-json[=F]                            record a Chrome trace-event
//                                               session around the whole run
//                                               (F=- or bare flag → stderr);
//                                               used by EXPERIMENTS.md E18
//                                               to measure tracing overhead
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "oracles/inclusion.h"
#include "oracles/map_kernels.h"
#include "stap/approx/inclusion.h"
#include "stap/approx/upper.h"
#include "stap/automata/antichain.h"
#include "stap/automata/determinize.h"
#include "stap/automata/inclusion.h"
#include "stap/automata/minimize.h"
#include "stap/base/budget.h"
#include "stap/base/metrics.h"
#include "stap/base/thread_pool.h"
#include "stap/base/trace.h"
#include "stap/gen/random.h"
#include "stap/regex/ast.h"
#include "stap/regex/glushkov.h"

namespace stap {
namespace {

// Budget limits parsed from the command line by main. Budgets latch once
// exhausted, so the budgeted benchmarks build a fresh Budget per
// iteration from these limits instead of sharing one instance.
struct BudgetConfig {
  int64_t budget_ms = -1;
  int64_t max_states = -1;
  int64_t max_sets = -1;
};
BudgetConfig g_budget_config;

void ApplyBudgetConfig(Budget* budget) {
  if (g_budget_config.budget_ms >= 0) {
    budget->set_deadline_ms(g_budget_config.budget_ms);
  }
  if (g_budget_config.max_states >= 0) {
    budget->set_max_states(g_budget_config.max_states);
  }
  if (g_budget_config.max_sets >= 0) {
    budget->set_max_sets(g_budget_config.max_sets);
  }
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

Nfa MakeNfa(int num_states, int seed) {
  std::mt19937 rng(seed * 2654435761u + 12345u);
  return RandomNfa(&rng, num_states, /*num_symbols=*/4,
                   /*transitions_per_state=*/3);
}

// A strict superset of `base` (extra transitions and finals), so that
// L(base) ⊆ L(result) holds and the inclusion search has to explore the
// whole reachable pair space instead of stopping at an early
// counterexample.
Nfa Loosen(const Nfa& base, int seed) {
  std::mt19937 rng(seed * 69069u + 1u);
  Nfa result = base;
  for (int q = 0; q < result.num_states(); ++q) {
    if (rng() % 100 < 40) {
      result.AddTransition(q, static_cast<int>(rng() % result.num_symbols()),
                           static_cast<int>(rng() % result.num_states()));
    }
  }
  result.SetFinal(static_cast<int>(rng() % result.num_states()));
  return result;
}

void BM_DeterminizeHashed(benchmark::State& state) {
  Nfa nfa = MakeNfa(static_cast<int>(state.range(0)), 7);
  int states = 0;
  for (auto _ : state) {
    Dfa dfa = *Determinize(nfa);
    states = dfa.num_states();
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["dfa_states"] = states;
}

void BM_DeterminizeMap(benchmark::State& state) {
  Nfa nfa = MakeNfa(static_cast<int>(state.range(0)), 7);
  int states = 0;
  for (auto _ : state) {
    Dfa dfa = MapDeterminize(nfa);
    states = dfa.num_states();
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["dfa_states"] = states;
}

void BM_MinimizeHashed(benchmark::State& state) {
  Dfa dfa = *Determinize(MakeNfa(static_cast<int>(state.range(0)), 11));
  for (auto _ : state) {
    Dfa minimized = *Minimize(dfa);
    benchmark::DoNotOptimize(minimized);
  }
  state.counters["dfa_states"] = dfa.num_states();
}

void BM_MinimizeMap(benchmark::State& state) {
  Dfa dfa = *Determinize(MakeNfa(static_cast<int>(state.range(0)), 11));
  for (auto _ : state) {
    Dfa minimized = MapMinimize(dfa);
    benchmark::DoNotOptimize(minimized);
  }
  state.counters["dfa_states"] = dfa.num_states();
}

void BM_NfaInclusionHashed(benchmark::State& state) {
  Nfa a = MakeNfa(static_cast<int>(state.range(0)), 3);
  Nfa b = Loosen(a, 5);
  for (auto _ : state) {
    bool included = *NfaIncludedInNfa(a, b);
    benchmark::DoNotOptimize(included);
  }
}

void BM_NfaInclusionMap(benchmark::State& state) {
  Nfa a = MakeNfa(static_cast<int>(state.range(0)), 3);
  Nfa b = Loosen(a, 5);
  for (auto _ : state) {
    bool included = NfaIncludedInNfaViaSubsets(a, b);
    benchmark::DoNotOptimize(included);
  }
}

BENCHMARK(BM_DeterminizeHashed)->RangeMultiplier(2)->Range(8, 64);
BENCHMARK(BM_DeterminizeMap)->RangeMultiplier(2)->Range(8, 64);
BENCHMARK(BM_MinimizeHashed)->RangeMultiplier(2)->Range(8, 64);
BENCHMARK(BM_MinimizeMap)->RangeMultiplier(2)->Range(8, 64);
BENCHMARK(BM_NfaInclusionHashed)->RangeMultiplier(2)->Range(8, 32);
BENCHMARK(BM_NfaInclusionMap)->RangeMultiplier(2)->Range(8, 32);

// ---------------------------------------------------------------------
// Antichain-vs-determinize crossover on the paper's exponential
// lower-bound family (Theorem 3.2's string language).
// ---------------------------------------------------------------------

// The Glushkov NFA of (a+b)* a (a+b)^n — "the (n+1)-th letter from the
// end is an a". Every determinization-based route explores the full
// 2^(n+1) subset space on the self-inclusion L ⊆ L, while the antichain
// frontier collapses onto the ⊆-minimal reachable set per NFA state
// (reached by the short word a b^(k-1)), keeping the search polynomial.
Nfa LowerBoundNfa(int n) {
  RegexPtr ab = Regex::Union({Regex::Symbol(0), Regex::Symbol(1)});
  std::vector<RegexPtr> parts;
  parts.push_back(Regex::Star(ab));
  parts.push_back(Regex::Symbol(0));
  for (int i = 0; i < n; ++i) parts.push_back(ab);
  return *GlushkovAutomaton(*Regex::Concat(std::move(parts)),
                            /*num_symbols=*/2);
}

void BM_LowerBoundInclusionAntichain(benchmark::State& state) {
  Nfa nfa = LowerBoundNfa(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bool included = *AntichainIncluded(nfa, nfa);
    benchmark::DoNotOptimize(included);
  }
  state.counters["nfa_states"] = nfa.num_states();
}

// The retired production path: BFS over pairs of subsets (the map-based
// oracle in tests/oracles/inclusion.h).
void BM_LowerBoundInclusionSubsets(benchmark::State& state) {
  Nfa nfa = LowerBoundNfa(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    bool included = NfaIncludedInNfaViaSubsets(nfa, nfa);
    benchmark::DoNotOptimize(included);
  }
  state.counters["nfa_states"] = nfa.num_states();
}

// Determinize the right-hand side up front, then run the subset×DFA-state
// product search.
void BM_LowerBoundInclusionDeterminize(benchmark::State& state) {
  Nfa nfa = LowerBoundNfa(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Dfa dfa = *Determinize(nfa);
    bool included =
        !NfaDfaInclusionCounterexampleViaSubsets(nfa, dfa).has_value();
    benchmark::DoNotOptimize(included);
  }
  state.counters["nfa_states"] = nfa.num_states();
}

BENCHMARK(BM_LowerBoundInclusionAntichain)->DenseRange(2, 18, 2)->Arg(64);
BENCHMARK(BM_LowerBoundInclusionSubsets)->DenseRange(2, 18, 2);
BENCHMARK(BM_LowerBoundInclusionDeterminize)->DenseRange(2, 18, 2);

// Budget-governed determinization of the family: the subset construction
// on (a+b)* a (a+b)^n builds 2^(n+1) DFA states, so Arg(24) is infeasible
// without a cap. Each iteration gets a fresh Budget from the command-line
// limits — topped up with a default state cap so the benchmark stays
// bounded when run without flags — and the counter reports how many
// iterations the budget cut short. What this measures is the overhead of
// charging plus how quickly exhaustion unwinds: the per-iteration time at
// Arg(24) should track the cap, not the 2^25 subset space.
void BM_LowerBoundDeterminizeBudgeted(benchmark::State& state) {
  Nfa nfa = LowerBoundNfa(static_cast<int>(state.range(0)));
  int exhausted = 0;
  for (auto _ : state) {
    Budget budget;
    ApplyBudgetConfig(&budget);
    if (g_budget_config.budget_ms < 0 && g_budget_config.max_states < 0) {
      budget.set_max_states(1 << 16);
    }
    StatusOr<Dfa> dfa = Determinize(nfa, &budget);
    if (!dfa.ok()) ++exhausted;
    benchmark::DoNotOptimize(dfa);
  }
  state.counters["exhausted"] =
      benchmark::Counter(static_cast<double>(exhausted));
}

BENCHMARK(BM_LowerBoundDeterminizeBudgeted)->Arg(12)->Arg(24);

// ---------------------------------------------------------------------
// Parallel approximation sweep: EdtdIncludedInXsd with the per-pair
// content checks on a ThreadPool. Arg = worker threads (0 = serial
// path, no pool). The instance is d ⊆ minupper(d), which always holds,
// so the sweep visits every reachable pair (no early-out).
// ---------------------------------------------------------------------

void BM_EdtdInclusionSweep(benchmark::State& state) {
  std::mt19937 rng(987654321u);
  RandomSchemaParams params;
  params.num_symbols = 5;
  params.num_types = 14;
  params.content_breadth = 3;
  Edtd d = RandomEdtd(&rng, params);
  DfaXsd upper = MinimalUpperApproximation(d);
  const int threads = static_cast<int>(state.range(0));
  ThreadPool pool(threads);
  ThreadPool* pool_ptr = threads == 0 ? nullptr : &pool;
  for (auto _ : state) {
    bool included = EdtdIncludedInXsd(d, upper, pool_ptr);
    benchmark::DoNotOptimize(included);
  }
}

BENCHMARK(BM_EdtdInclusionSweep)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

// Strips the stap resource flags (see the file comment) out of argv
// before benchmark::Initialize sees them, filling g_budget_config and the
// metrics sink. Returns false on a malformed integer value.
bool StripResourceFlags(int* argc, char** argv, bool* dump_metrics,
                        std::string* metrics_path, bool* trace,
                        std::string* trace_path) {
  auto int_value = [](const char* text, int64_t* out) {
    char* end = nullptr;
    long long parsed = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || parsed < 0) return false;
    *out = parsed;
    return true;
  };
  int kept = 1;
  bool ok = true;
  for (int i = 1; i < *argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--budget-ms=", 0) == 0) {
      ok = ok && int_value(arg.c_str() + 12, &g_budget_config.budget_ms);
    } else if (arg.rfind("--max-states=", 0) == 0) {
      ok = ok && int_value(arg.c_str() + 13, &g_budget_config.max_states);
    } else if (arg.rfind("--max-sets=", 0) == 0) {
      ok = ok && int_value(arg.c_str() + 11, &g_budget_config.max_sets);
    } else if (arg == "--metrics-json") {
      *dump_metrics = true;
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      *dump_metrics = true;
      *metrics_path = arg.substr(15);
    } else if (arg == "--trace-json") {
      *trace = true;
    } else if (arg.rfind("--trace-json=", 0) == 0) {
      *trace = true;
      *trace_path = arg.substr(13);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return ok;
}

}  // namespace
}  // namespace stap

int main(int argc, char** argv) {
  bool dump_metrics = false;
  std::string metrics_path;
  bool trace = false;
  std::string trace_path;
  if (!stap::StripResourceFlags(&argc, argv, &dump_metrics, &metrics_path,
                                &trace, &trace_path)) {
    std::cerr << "error: malformed resource flag value\n";
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The session (when requested) wraps the whole benchmark run; E18
  // compares timings with and without it to bound the active-tracing tax.
  stap::TraceSession session;
  if (trace) session.Start();
  benchmark::RunSpecifiedBenchmarks();
  if (trace) {
    session.Stop();
    const std::string json = session.ToChromeJson();
    if (trace_path.empty() || trace_path == "-") {
      std::cerr << json << "\n";
    } else {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "error: cannot write trace to '" << trace_path << "'\n";
        return 1;
      }
      out << json << "\n";
    }
  }
  benchmark::Shutdown();
  if (dump_metrics) {
    const std::string json = stap::MetricsRegistry::Global()->ToJson();
    if (metrics_path.empty() || metrics_path == "-") {
      std::cerr << json << "\n";
    } else {
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "error: cannot write metrics to '" << metrics_path
                  << "'\n";
        return 1;
      }
      out << json << "\n";
    }
  }
  return 0;
}
