// Experiment E7 (Theorem 3.5): deciding whether a candidate XSD is the
// minimal upper approximation of a target EDTD. The decision is
// PSPACE-complete in general; the on-the-fly product keeps memory
// proportional to the frontier. Instances: the Theorem 3.6 union family,
// with the construction's own output as the (positive) candidate.
#include <benchmark/benchmark.h>

#include "stap/approx/minimal_upper_check.h"
#include "stap/approx/upper.h"
#include "stap/approx/upper_boolean.h"
#include "stap/gen/families.h"

namespace stap {
namespace {

void BM_MinimalUpperCheckPositive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto [d1, d2] = Theorem36Family(n);
  Edtd target = EdtdUnion(d1, d2);
  Edtd candidate = StEdtdFromDfaXsd(MinimalUpperApproximation(target));
  bool verdict = false;
  for (auto _ : state) {
    verdict = *IsMinimalUpperApproximation(candidate, target);
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["n"] = n;
  state.counters["candidate_types"] = candidate.num_types();
  state.counters["verdict"] = verdict ? 1 : 0;
}

void BM_MinimalUpperCheckNegative(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto [d1, d2] = Theorem36Family(n);
  Edtd target = EdtdUnion(d1, d2);
  // d1 alone is not even an upper bound: early rejection path.
  bool verdict = true;
  for (auto _ : state) {
    verdict = *IsMinimalUpperApproximation(d1, target);
    benchmark::DoNotOptimize(verdict);
  }
  state.counters["n"] = n;
  state.counters["verdict"] = verdict ? 1 : 0;
}

BENCHMARK(BM_MinimalUpperCheckPositive)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MinimalUpperCheckNegative)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
