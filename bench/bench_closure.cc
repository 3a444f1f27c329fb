// Ablation benchmarks for the design choices DESIGN.md calls out:
//   * the exchange-closure engine (cost vs. seed count, and the effect of
//     the early-exit stop predicate used by the Section 4.4 checks);
//   * Construction 3.1 with its canonical (determinize + minimize)
//     content models, the baseline the closure costs compare against.
#include <benchmark/benchmark.h>

#include <random>

#include "stap/approx/closure.h"
#include "stap/approx/upper.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/reduce.h"
#include "stap/tree/enumerate.h"

namespace stap {
namespace {

// Seeds: members of a random finite EDTD within bounds, capped.
std::vector<Tree> ClosureSeeds(int want) {
  std::mt19937 rng(11 + want);
  RandomSchemaParams params;
  params.num_symbols = 2;
  params.num_types = 3;
  for (int attempt = 0; attempt < 50; ++attempt) {
    Edtd schema = RandomFiniteEdtd(&rng, params);
    std::vector<Tree> members;
    for (const Tree& tree : EnumerateTrees({3, 2, schema.sigma.size()})) {
      if (schema.Accepts(tree)) {
        members.push_back(tree);
        if (static_cast<int>(members.size()) == want) return members;
      }
    }
    if (static_cast<int>(members.size()) >= want / 2 && !members.empty()) {
      return members;
    }
  }
  return {Tree(0)};
}

void BM_ClosureFixpoint(benchmark::State& state) {
  std::vector<Tree> seeds = ClosureSeeds(static_cast<int>(state.range(0)));
  ClosureOptions options;
  options.max_trees = 3000;
  int64_t closure_size = 0;
  for (auto _ : state) {
    ClosureResult result = CloseUnderExchange(seeds, options);
    closure_size = static_cast<int64_t>(result.trees.size());
    benchmark::DoNotOptimize(closure_size);
  }
  state.counters["seeds"] = static_cast<double>(seeds.size());
  state.counters["closure_size"] = static_cast<double>(closure_size);
}

void BM_ClosureWithStopPredicate(benchmark::State& state) {
  std::vector<Tree> seeds = ClosureSeeds(static_cast<int>(state.range(0)));
  // A predicate that never fires: measures the per-member overhead of
  // the early-exit hook relative to BM_ClosureFixpoint.
  ClosureOptions options;
  options.max_trees = 3000;
  options.stop_predicate = [](const Tree& tree) {
    return tree.NumNodes() < 0;
  };
  int64_t closure_size = 0;
  for (auto _ : state) {
    ClosureResult result = CloseUnderExchange(seeds, options);
    closure_size = static_cast<int64_t>(result.trees.size());
    benchmark::DoNotOptimize(closure_size);
  }
  state.counters["seeds"] = static_cast<double>(seeds.size());
  state.counters["closure_size"] = static_cast<double>(closure_size);
}

Edtd AblationSchema(int num_types) {
  std::mt19937 rng(271828 + num_types);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = num_types;
  params.content_breadth = 3;
  return RandomEdtd(&rng, params);
}

void BM_UpperWithContentMinimization(benchmark::State& state) {
  Edtd edtd = AblationSchema(static_cast<int>(state.range(0)));
  int64_t size = 0;
  for (auto _ : state) {
    DfaXsd upper = MinimalUpperApproximation(edtd);
    size = upper.Size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["xsd_size"] = static_cast<double>(size);
}

BENCHMARK(BM_ClosureFixpoint)
    ->RangeMultiplier(2)
    ->Range(4, 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClosureWithStopPredicate)
    ->RangeMultiplier(2)
    ->Range(4, 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UpperWithContentMinimization)
    ->RangeMultiplier(2)
    ->Range(2, 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace stap
