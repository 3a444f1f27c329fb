// Experiment E8 (Lemma 4.6 / Theorem 4.8): the non-violating set
// nv(D2, D1) and the maximal lower approximation L(D1) ∪ nv(D2, D1) of a
// union fixing one disjunct, in polynomial time. Instances: the paper's
// Theorem 4.3 pair plus random single-type pairs of growing size.
#include <benchmark/benchmark.h>

#include <random>

#include "stap/approx/nv.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"

namespace stap {
namespace {

void BM_LowerUnionPaperExample(benchmark::State& state) {
  auto [d1, d2] = Theorem43Schemas();
  int64_t type_size = 0;
  for (auto _ : state) {
    DfaXsd lower = *LowerUnionFixingFirst(d1, d2);
    type_size = lower.type_size();
    benchmark::DoNotOptimize(type_size);
  }
  state.counters["type_size"] = static_cast<double>(type_size);
}

void BM_NonViolatingRandom(benchmark::State& state) {
  const int num_types = static_cast<int>(state.range(0));
  std::mt19937 rng(9001 + num_types);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = num_types;
  Edtd d1 = RandomStEdtd(&rng, params);
  Edtd d2 = RandomStEdtd(&rng, params);
  int64_t type_size = 0;
  for (auto _ : state) {
    DfaXsd nv = *NonViolating(d1, d2);
    type_size = nv.type_size();
    benchmark::DoNotOptimize(type_size);
  }
  state.counters["types_d1"] = d1.num_types();
  state.counters["types_d2"] = d2.num_types();
  state.counters["nv_type_size"] = static_cast<double>(type_size);
}

void BM_LowerUnionRandom(benchmark::State& state) {
  const int num_types = static_cast<int>(state.range(0));
  std::mt19937 rng(9001 + num_types);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = num_types;
  Edtd d1 = RandomStEdtd(&rng, params);
  Edtd d2 = RandomStEdtd(&rng, params);
  int64_t type_size = 0;
  for (auto _ : state) {
    DfaXsd lower = *LowerUnionFixingFirst(d1, d2);
    type_size = lower.type_size();
    benchmark::DoNotOptimize(type_size);
  }
  state.counters["lower_type_size"] = static_cast<double>(type_size);
}

BENCHMARK(BM_LowerUnionPaperExample)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NonViolatingRandom)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LowerUnionRandom)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
