// Experiment E14: the introduction's motivating workload on realistic
// document schemas — merging two publisher article schemas
// (DocBook-flavored and JATS-flavored), diffing schema versions, and
// validating against the merged XSD. The shapes to observe: all
// operations stay in the low-millisecond range and output sizes stay
// close to the sum of the inputs (the paper's "usable algorithms for
// real-world XSDs" conclusion).
#include <benchmark/benchmark.h>

#include <random>

#include "stap/approx/diff_report.h"
#include "stap/approx/upper_boolean.h"
#include "stap/base/check.h"
#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/minimize.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"
#include "stap/schema/xsd_io.h"

namespace stap {
namespace {

// The examples/data schemas, inlined so the bench has no file
// dependencies.
Edtd DocbookLite() {
  SchemaBuilder b;
  b.AddType("Article", "article", "Info Section+");
  b.AddType("Info", "info", "Title Author+ Abstract?");
  b.AddType("Title", "title", "%");
  b.AddType("Author", "author", "PersonName Affiliation?");
  b.AddType("PersonName", "personname", "%");
  b.AddType("Affiliation", "affiliation", "%");
  b.AddType("Abstract", "abstract", "Para+");
  b.AddType("Section", "section", "Title Para* Subsection*");
  b.AddType("Subsection", "section2", "Title Para+");
  b.AddType("Para", "para", "(Emphasis | Link)*");
  b.AddType("Emphasis", "emphasis", "%");
  b.AddType("Link", "link", "%");
  b.AddStart("Article");
  return b.Build();
}

Edtd JatsLite() {
  SchemaBuilder b;
  b.AddType("Article", "article", "Front Body Back?");
  b.AddType("Front", "front", "Title Contrib+");
  b.AddType("Title", "title", "%");
  b.AddType("Contrib", "author", "PersonName");
  b.AddType("PersonName", "personname", "%");
  b.AddType("Body", "body", "Section+");
  b.AddType("Section", "section", "Title Para+");
  b.AddType("Para", "para", "(Emphasis | Xref)*");
  b.AddType("Emphasis", "emphasis", "%");
  b.AddType("Xref", "xref", "%");
  b.AddType("Back", "back", "RefList");
  b.AddType("RefList", "reflist", "Ref*");
  b.AddType("Ref", "ref", "%");
  b.AddStart("Article");
  return b.Build();
}

void BM_RealisticMerge(benchmark::State& state) {
  Edtd docbook = DocbookLite();
  Edtd jats = JatsLite();
  int64_t type_size = 0;
  for (auto _ : state) {
    DfaXsd merged = MinimizeXsd(*UpperUnion(docbook, jats));
    type_size = merged.type_size();
    benchmark::DoNotOptimize(type_size);
  }
  state.counters["types_docbook"] = ReduceEdtd(docbook).num_types();
  state.counters["types_jats"] = ReduceEdtd(jats).num_types();
  state.counters["types_merged"] = static_cast<double>(type_size);
}

void BM_RealisticDiffReport(benchmark::State& state) {
  Edtd docbook = DocbookLite();
  Edtd jats = JatsLite();
  double incomparable = 0;
  for (auto _ : state) {
    SchemaDiffReport report = *CompareSchemas(docbook, jats, nullptr, 5, 4);
    incomparable =
        report.relation == SchemaRelation::kIncomparable ? 1.0 : 0.0;
    benchmark::DoNotOptimize(incomparable);
  }
  state.counters["relation_incomparable"] = incomparable;
}

void BM_RealisticExportImport(benchmark::State& state) {
  DfaXsd merged =
      MinimizeXsd(*UpperUnion(DocbookLite(), JatsLite()));
  int64_t bytes = 0;
  for (auto _ : state) {
    std::string exported = *ExportXsd(merged);
    StatusOr<Edtd> imported = ImportXsd(exported);
    STAP_CHECK(imported.ok());
    bytes = static_cast<int64_t>(exported.size());
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["xsd_bytes"] = static_cast<double>(bytes);
}

void BM_RealisticValidation(benchmark::State& state) {
  DfaXsd merged =
      MinimizeXsd(*UpperUnion(DocbookLite(), JatsLite()));
  std::mt19937 rng(5);
  std::vector<Tree> documents;
  for (int i = 0; i < 20; ++i) {
    documents.push_back(*SampleTree(merged, &rng, 6));
  }
  int64_t nodes = 0;
  for (const Tree& doc : documents) nodes += doc.NumNodes();
  for (auto _ : state) {
    bool all = true;
    for (const Tree& doc : documents) all = all && merged.Accepts(doc);
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(state.iterations() * nodes);
  state.counters["documents"] = static_cast<double>(documents.size());
  state.counters["total_nodes"] = static_cast<double>(nodes);
}

BENCHMARK(BM_RealisticMerge)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RealisticDiffReport)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RealisticExportImport)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RealisticValidation)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace stap
