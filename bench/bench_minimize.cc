// Experiment E10 (reference [20]): minimizing the output XSDs — "optimal
// representations of optimal approximations" — in polynomial time.
// Instances: the (already quadratic-sized) union approximations of the
// Theorem 3.6 family and random schemas with duplicated structure.
#include <benchmark/benchmark.h>

#include <random>

#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/minimize.h"

namespace stap {
namespace {

void BM_MinimizeUnionOutput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto [d1, d2] = Theorem36Family(n);
  DfaXsd upper = *UpperUnion(d1, d2);
  int64_t before = upper.type_size();
  int64_t after = 0;
  for (auto _ : state) {
    DfaXsd minimized = MinimizeXsd(upper);
    after = minimized.type_size();
    benchmark::DoNotOptimize(after);
  }
  state.counters["n"] = n;
  state.counters["types_before"] = static_cast<double>(before);
  state.counters["types_after"] = static_cast<double>(after);
}

void BM_MinimizeRandom(benchmark::State& state) {
  const int num_types = static_cast<int>(state.range(0));
  std::mt19937 rng(31 + num_types);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = num_types;
  DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
  int64_t after = 0;
  for (auto _ : state) {
    DfaXsd minimized = MinimizeXsd(xsd);
    after = minimized.type_size();
    benchmark::DoNotOptimize(after);
  }
  state.counters["types_before"] = xsd.type_size();
  state.counters["types_after"] = static_cast<double>(after);
}

BENCHMARK(BM_MinimizeUnionOutput)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MinimizeRandom)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
