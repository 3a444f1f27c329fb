// Experiment E6 (Lemma 3.3): inclusion of an EDTD in a single-type EDTD
// in polynomial time, against the generic EXPTIME route (binary encoding
// + bottom-up determinization + product emptiness). Both algorithms run
// on the same instances; the paper's claim is the widening gap.
#include <benchmark/benchmark.h>

#include <random>

#include "stap/approx/inclusion.h"
#include "stap/approx/upper_boolean.h"
#include "stap/gen/random.h"
#include "stap/schema/single_type.h"
#include "stap/schema/reduce.h"
#include "stap/treeauto/exact.h"

namespace stap {
namespace {

std::pair<Edtd, Edtd> MakeInstance(int num_types) {
  std::mt19937 rng(4242 + num_types);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = num_types;
  Edtd d1 = RandomStEdtd(&rng, params);
  Edtd d2 = RandomStEdtd(&rng, params);
  return AlignAlphabets(d1, d2);
}

void BM_InclusionPtime(benchmark::State& state) {
  auto [d1, d2] = MakeInstance(static_cast<int>(state.range(0)));
  bool included = false;
  for (auto _ : state) {
    included = *IncludedInSingleType(d1, d2);
    benchmark::DoNotOptimize(included);
  }
  state.counters["types"] = static_cast<double>(state.range(0));
  state.counters["included"] = included ? 1 : 0;
}

// Positive instances (the test must walk the whole product): d1 against
// the upper approximation of d1 ∪ d2, which contains d1 by construction.
void BM_InclusionPtimePositive(benchmark::State& state) {
  auto [d1, d2] = MakeInstance(static_cast<int>(state.range(0)));
  Edtd superset = StEdtdFromDfaXsd(*UpperUnion(d1, d2));
  bool included = false;
  for (auto _ : state) {
    included = *IncludedInSingleType(d1, superset);
    benchmark::DoNotOptimize(included);
  }
  state.counters["types"] = static_cast<double>(state.range(0));
  state.counters["included"] = included ? 1 : 0;
}

void BM_InclusionExact(benchmark::State& state) {
  auto [d1, d2] = MakeInstance(static_cast<int>(state.range(0)));
  Edtd r1 = ReduceEdtd(d1);
  Edtd r2 = ReduceEdtd(d2);
  bool included = false;
  for (auto _ : state) {
    included = EdtdIncludedInExact(r1, r2);
    benchmark::DoNotOptimize(included);
  }
  state.counters["types"] = static_cast<double>(state.range(0));
  state.counters["included"] = included ? 1 : 0;
}

BENCHMARK(BM_InclusionPtime)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InclusionPtimePositive)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InclusionExact)
    ->RangeMultiplier(2)
    ->Range(2, 8)  // the exact route stops scaling well before 16
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
