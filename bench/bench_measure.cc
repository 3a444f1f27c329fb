// Experiment E24: precision analytics cost and the precision-vs-size
// curves behind `stap measure`.
//
// Three questions: (1) what the exact profile DP costs as depth grows on
// a nondeterministic schema, versus the binary-encoding DP that pays an
// up-front DeterminizeBta instead (BM_CountProfile / BM_CountBinary);
// (2) what a full measure run — schema count, both approximations, both
// intersection counts — costs on the counted family as the occurrence
// bounds grow (BM_MeasureCounted, the E24 headline); (3) what the
// size-indexed tables and an exact-weight uniform draw cost
// (BM_SizeTables / BM_SampleUniform). `log2_count` counters report the
// magnitude being computed, so the JSON records the precision curves
// alongside the timings.
#include <benchmark/benchmark.h>

#include <random>

#include "oracles/count_binary.h"
#include "stap/count/counter.h"
#include "stap/count/measure.h"
#include "stap/gen/families.h"
#include "stap/gen/random.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"

namespace stap {
namespace {

// A fixed nondeterministic workload: the Theorem 3.2 family, whose upper
// approximation is exponentially larger than the schema — the setting
// measure exists to quantify.
Edtd NondeterministicSchema() { return ReduceEdtd(Theorem32Family(3)); }

void BM_CountProfile(benchmark::State& state) {
  const Edtd edtd = NondeterministicSchema();
  CountBounds bounds;
  bounds.max_depth = static_cast<int>(state.range(0));
  bounds.max_width = 3;
  double log2_count = 0;
  for (auto _ : state) {
    StatusOr<std::vector<CountValue>> counts =
        CountEdtdByDepth(edtd, bounds, nullptr);
    if (!counts.ok()) state.SkipWithError("count failed");
    log2_count = counts->back().Log2();
    benchmark::DoNotOptimize(counts);
  }
  state.counters["log2_count"] = log2_count;
}
BENCHMARK(BM_CountProfile)->DenseRange(4, 10, 2);

void BM_CountBinary(benchmark::State& state) {
  const Edtd edtd = NondeterministicSchema();
  CountBounds bounds;
  bounds.max_depth = static_cast<int>(state.range(0));
  bounds.max_width = 3;
  for (auto _ : state) {
    StatusOr<std::vector<CountValue>> counts =
        CountEdtdByDepthViaBinary(edtd, bounds, nullptr);
    if (!counts.ok()) state.SkipWithError("count failed");
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_CountBinary)->DenseRange(4, 10, 2);

// The E24 headline: full precision analytics on the counted family. The
// depth-4 slice covers every document shape the family admits, so
// `log2_schema` traces |L(S)| while n scales the occurrence bounds.
void BM_MeasureCounted(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Edtd edtd = CountedFamily(n, 2 * n);
  MeasureOptions options;
  options.bounds.max_depth = 4;
  options.bounds.max_width = 4 * n + 2;
  double log2_schema = 0;
  double precision = 1.0;
  for (auto _ : state) {
    StatusOr<MeasureResult> result = MeasureSchema(edtd, options, nullptr);
    if (!result.ok()) state.SkipWithError("measure failed");
    log2_schema = result->schema.back().Log2();
    precision = result->UpperPrecision(options.bounds.max_depth - 1);
    benchmark::DoNotOptimize(result);
  }
  state.counters["log2_schema"] = log2_schema;
  state.counters["upper_precision"] = precision;
}
BENCHMARK(BM_MeasureCounted)->DenseRange(1, 7, 2);

void BM_SizeTables(benchmark::State& state) {
  std::mt19937 rng(7);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = 5;
  params.repeat_percent = 50;
  const DfaXsd xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
  const int max_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    StatusOr<XsdSizeTables> tables =
        BuildXsdSizeTables(xsd, max_size, nullptr);
    if (!tables.ok()) state.SkipWithError("tables failed");
    benchmark::DoNotOptimize(tables);
  }
}
BENCHMARK(BM_SizeTables)->RangeMultiplier(2)->Range(8, 64);

void BM_SampleUniform(benchmark::State& state) {
  std::mt19937 rng(7);
  RandomSchemaParams params;
  params.num_symbols = 3;
  params.num_types = 5;
  params.repeat_percent = 50;
  const int size = static_cast<int>(state.range(0));
  DfaXsd xsd;
  XsdSizeTables tables;
  // Retry schemas until one admits trees of the target size, so every
  // iteration below draws instead of returning nullopt.
  do {
    xsd = DfaXsdFromStEdtd(RandomStEdtd(&rng, params));
    StatusOr<XsdSizeTables> built = BuildXsdSizeTables(xsd, size, nullptr);
    if (!built.ok()) {
      state.SkipWithError("tables failed");
      return;
    }
    tables = *std::move(built);
  } while (tables.totals[size].IsZero());
  int64_t sampled = 0;
  for (auto _ : state) {
    std::optional<Tree> tree = SampleTreeUniform(xsd, tables, size, &rng);
    if (!tree.has_value()) state.SkipWithError("sampler returned nullopt");
    benchmark::DoNotOptimize(tree);
    ++sampled;
  }
  state.SetItemsProcessed(sampled);
}
BENCHMARK(BM_SampleUniform)->RangeMultiplier(2)->Range(8, 64);

}  // namespace
}  // namespace stap
