// Experiment E4 (Theorem 3.9): the minimal upper approximation of the
// complement of an XSD is computable in polynomial time — the subset
// construction on D_c's type automaton only ever reaches subsets with at
// most two elements. The counters report how the output scales with the
// input type count on random schemas (a polynomial, not exponential,
// curve).
#include <benchmark/benchmark.h>

#include <random>

#include "stap/approx/upper_boolean.h"
#include "stap/gen/random.h"
#include "stap/schema/minimize.h"

namespace stap {
namespace {

void BM_UpperComplement(benchmark::State& state) {
  const int num_types = static_cast<int>(state.range(0));
  std::mt19937 rng(12345 + num_types);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = num_types;
  Edtd schema = RandomStEdtd(&rng, params);
  int64_t type_size = 0;
  for (auto _ : state) {
    DfaXsd upper = *UpperComplement(schema);
    type_size = upper.type_size();
    benchmark::DoNotOptimize(type_size);
  }
  state.counters["input_types"] = schema.num_types();
  state.counters["input_size"] = static_cast<double>(schema.Size());
  state.counters["type_size"] = static_cast<double>(type_size);
}

BENCHMARK(BM_UpperComplement)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
