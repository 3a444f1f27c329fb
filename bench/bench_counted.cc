// Experiment E22: counted content models, count-preserving vs expanded.
// The counted family's schema *source* is O(1) (`Item{n,2n}`), but the
// compiled content DFA is Θ(n) — compilation must pay the expansion
// (BM_CompileCounted tracks that growth; the budget makes it safe).
// What provenance buys is the way *back out*: ExportXsd with the
// retained counted source emits `minOccurs="n" maxOccurs="2n"` in O(1)
// bytes, while the provenance-stripped path re-derives a regex from the
// Θ(n)-state DFA and emits the expanded particle. `xsd_bytes` is the
// headline counter; `dfa_states` documents the compile-side cost both
// variants share.
#include <benchmark/benchmark.h>

#include <string>

#include "stap/gen/families.h"
#include "stap/schema/edtd.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/xsd_io.h"

namespace stap {
namespace {

// The validator the export benchmarks start from: reduced, single-type,
// minimized — the same pipeline `stap export` runs.
DfaXsd CountedXsd(int n) {
  return MinimizeXsd(DfaXsdFromStEdtd(ReduceEdtd(CountedFamily(n, 2 * n))));
}

int TotalContentStates(const Edtd& edtd) {
  int total = 0;
  for (const Dfa& dfa : edtd.content) total += dfa.num_states();
  return total;
}

// Compile cost of the counted family as the bound grows: SchemaBuilder
// runs the full Glushkov expansion → determinize → minimize per content
// model, so time and `dfa_states` both scale with n.
void BM_CompileCounted(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  int states = 0;
  for (auto _ : state) {
    Edtd edtd = CountedFamily(n, 2 * n);
    states = TotalContentStates(edtd);
    benchmark::DoNotOptimize(edtd);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["dfa_states"] = static_cast<double>(states);
}

// Count-preserving export: content_source survives the pipeline, so the
// emitted particle is `minOccurs/maxOccurs` — O(1) bytes in n.
void BM_ExportCountPreserving(benchmark::State& state) {
  const DfaXsd xsd = CountedXsd(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = *ExportXsd(xsd);
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["xsd_bytes"] = static_cast<double>(bytes);
}

// The pre-provenance behavior: strip content_source and force the
// exporter through DfaToRegex, which re-derives an expanded particle
// from the Θ(n)-state content DFA — Θ(n) bytes and regex-synthesis time.
void BM_ExportExpanded(benchmark::State& state) {
  DfaXsd xsd = CountedXsd(static_cast<int>(state.range(0)));
  xsd.content_source.clear();
  size_t bytes = 0;
  for (auto _ : state) {
    std::string out = *ExportXsd(xsd);
    bytes = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["xsd_bytes"] = static_cast<double>(bytes);
}

// Import side of the A/B: re-ingesting a count-preserving export parses
// O(1) syntax then pays the same expansion at compile time; re-ingesting
// an expanded export also parses Θ(n) particles first.
void BM_ImportCountPreserving(benchmark::State& state) {
  const std::string xml = *ExportXsd(CountedXsd(static_cast<int>(
      state.range(0))));
  for (auto _ : state) {
    StatusOr<Edtd> edtd = ImportXsd(xml);
    benchmark::DoNotOptimize(edtd);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["source_bytes"] = static_cast<double>(xml.size());
}

void BM_ImportExpanded(benchmark::State& state) {
  DfaXsd xsd = CountedXsd(static_cast<int>(state.range(0)));
  xsd.content_source.clear();
  const std::string xml = *ExportXsd(xsd);
  for (auto _ : state) {
    StatusOr<Edtd> edtd = ImportXsd(xml);
    benchmark::DoNotOptimize(edtd);
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["source_bytes"] = static_cast<double>(xml.size());
}

BENCHMARK(BM_CompileCounted)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_ExportCountPreserving)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_ExportExpanded)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_ImportCountPreserving)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_ImportExpanded)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace stap
