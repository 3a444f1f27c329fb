// Experiment E5 (Theorem 3.10): the minimal upper approximation of the
// difference of two XSDs in polynomial time. Random single-type pairs of
// growing size; the reachable subsets of D_c's type automaton again have
// at most two elements, so the cost curve stays polynomial.
#include <benchmark/benchmark.h>

#include <random>

#include "stap/approx/upper_boolean.h"
#include "stap/gen/random.h"

namespace stap {
namespace {

void BM_UpperDifference(benchmark::State& state) {
  const int num_types = static_cast<int>(state.range(0));
  std::mt19937 rng(777 + num_types);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = num_types;
  Edtd d1 = RandomStEdtd(&rng, params);
  Edtd d2 = RandomStEdtd(&rng, params);
  int64_t type_size = 0;
  for (auto _ : state) {
    DfaXsd diff = *UpperDifference(d1, d2);
    type_size = diff.type_size();
    benchmark::DoNotOptimize(type_size);
  }
  state.counters["types_d1"] = d1.num_types();
  state.counters["types_d2"] = d2.num_types();
  state.counters["size_product"] =
      static_cast<double>(d1.Size()) * d2.Size();
  state.counters["type_size"] = static_cast<double>(type_size);
}

BENCHMARK(BM_UpperDifference)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
