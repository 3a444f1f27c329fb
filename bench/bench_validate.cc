// Experiment E11 (the EDC motivation, Section 1 / [21]): one-pass
// top-down XSD validation (DfaXsd::Accepts, which replays the tree into
// the StreamingValidator kernel) versus general EDTD (tree-automaton
// style) membership on the same documents. The shape to observe: both scale
// linearly in document size, with the XSD pass enjoying a significantly
// smaller constant — the practical payoff of the EDC constraint.
#include <benchmark/benchmark.h>

#include <random>

#include "stap/gen/random.h"
#include "stap/schema/builder.h"
#include "stap/schema/reduce.h"
#include "stap/schema/single_type.h"

namespace stap {
namespace {

Edtd CatalogSchema() {
  SchemaBuilder builder;
  builder.AddType("Store", "store", "Dept+");
  builder.AddType("Dept", "dept", "Name Item*");
  builder.AddType("Name", "name", "%");
  builder.AddType("Item", "item", "Name Price Review*");
  builder.AddType("Price", "price", "%");
  builder.AddType("Review", "review", "Name?");
  builder.AddStart("Store");
  return builder.Build();
}

// A document with roughly `target_nodes` nodes.
Tree MakeDocument(int target_nodes, std::mt19937* rng) {
  DfaXsd xsd = DfaXsdFromStEdtd(ReduceEdtd(CatalogSchema()));
  Tree document = *SampleTree(xsd, rng, 4);
  // Grow by appending departments until large enough.
  Alphabet& s = xsd.sigma;
  int dept = s.Find("dept"), name = s.Find("name"), item = s.Find("item"),
      price = s.Find("price"), review = s.Find("review");
  Tree item_tree(item, {Tree(name), Tree(price), Tree(review, {Tree(name)})});
  while (document.NumNodes() < target_nodes) {
    Tree dept_tree(dept, {Tree(name)});
    for (int i = 0; i < 8; ++i) dept_tree.children.push_back(item_tree);
    document.children.push_back(std::move(dept_tree));
  }
  return document;
}

void BM_ValidateXsdOnePass(benchmark::State& state) {
  std::mt19937 rng(1);
  Edtd schema = ReduceEdtd(CatalogSchema());
  DfaXsd xsd = DfaXsdFromStEdtd(schema);
  Tree document = MakeDocument(static_cast<int>(state.range(0)), &rng);
  bool ok = false;
  for (auto _ : state) {
    ok = xsd.Accepts(document);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * document.NumNodes());
  state.counters["nodes"] = document.NumNodes();
  state.counters["valid"] = ok ? 1 : 0;
}

void BM_ValidateEdtdBottomUp(benchmark::State& state) {
  std::mt19937 rng(1);
  Edtd schema = ReduceEdtd(CatalogSchema());
  Tree document = MakeDocument(static_cast<int>(state.range(0)), &rng);
  bool ok = false;
  for (auto _ : state) {
    ok = schema.Accepts(document);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * document.NumNodes());
  state.counters["nodes"] = document.NumNodes();
  state.counters["valid"] = ok ? 1 : 0;
}

BENCHMARK(BM_ValidateXsdOnePass)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ValidateEdtdBottomUp)
    ->RangeMultiplier(4)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace stap
