// Experiment E3 (Theorem 3.8): intersection of two XSDs is exactly
// single-type and computable in O(|D1|·|D2|); the prime-period chain
// family forces Ω(|D1|·|D2|) output types (lcm of the two periods).
#include <benchmark/benchmark.h>

#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"

namespace stap {
namespace {

void BM_UpperIntersection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto [d1, d2] = Theorem38Family(n);
  const int p1 = ReduceEdtd(d1).num_types();
  const int p2 = ReduceEdtd(d2).num_types();
  int64_t type_size = 0;
  for (auto _ : state) {
    DfaXsd inter = *UpperIntersection(d1, d2);
    type_size = inter.type_size();
    benchmark::DoNotOptimize(type_size);
  }
  state.counters["n"] = n;
  state.counters["p1"] = p1;
  state.counters["p2"] = p2;
  state.counters["p1_times_p2"] = static_cast<double>(p1) * p2;
  state.counters["type_size"] = static_cast<double>(type_size);
}

BENCHMARK(BM_UpperIntersection)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
