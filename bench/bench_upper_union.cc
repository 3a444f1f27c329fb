// Experiment E2 (Theorem 3.6): upper approximation of the union of two
// XSDs runs in O(|D1|·|D2|); the paper's family forces Ω(n²) output
// types. Counters report |D1|, |D2|, the product bound, and the actual
// (minimized) type-size — the quadratic curve of the theorem.
#include <benchmark/benchmark.h>

#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"
#include "stap/schema/minimize.h"

namespace stap {
namespace {

void BM_UpperUnion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto [d1, d2] = Theorem36Family(n);
  int64_t type_size = 0;
  for (auto _ : state) {
    DfaXsd upper = *UpperUnion(d1, d2);
    type_size = upper.type_size();
    benchmark::DoNotOptimize(type_size);
  }
  state.counters["n"] = n;
  state.counters["size_d1"] = static_cast<double>(d1.Size());
  state.counters["size_d2"] = static_cast<double>(d2.Size());
  state.counters["product_bound"] =
      static_cast<double>(d1.Size() * d2.Size());
  state.counters["type_size"] = static_cast<double>(type_size);
  state.counters["minimized_type_size"] =
      static_cast<double>(MinimizeXsd(*UpperUnion(d1, d2)).type_size());
  state.counters["n_squared"] = static_cast<double>(n) * n;
}

BENCHMARK(BM_UpperUnion)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
