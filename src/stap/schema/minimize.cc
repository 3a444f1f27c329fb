#include "stap/schema/minimize.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "stap/automata/interner.h"
#include "stap/automata/minimize.h"
#include "stap/base/trace.h"
#include "stap/schema/reduce.h"

namespace stap {

namespace {

// The initial-partition key: a state's label and its canonical content
// DFA, by pointer into the reduction (which outlives the table). q_init's
// label is kNoSymbol, which no other state carries, so it keys a block of
// its own.
struct ContentKey {
  int label;
  const Dfa* content;
  bool operator==(const ContentKey& other) const {
    return label == other.label && *content == *other.content;
  }
};

struct ContentKeyHash {
  size_t operator()(const ContentKey& key) const {
    return static_cast<size_t>(MixU64(DfaStructuralHash(*key.content) ^
                                      static_cast<uint32_t>(key.label)));
  }
};

}  // namespace

DfaXsd MinimizeXsd(const DfaXsd& input) {
  StatusOr<DfaXsd> result = MinimizeXsd(input, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

StatusOr<DfaXsd> MinimizeXsd(const DfaXsd& input, Budget* budget) {
  ScopedSpan span("schema.minimize_xsd");
  input.CheckWellFormed();
  const Dfa& delta = input.automaton;
  const int num_states = delta.num_states();
  const int num_symbols = input.sigma.size();
  const int init = delta.initial();
  span.AddArg("states_in", num_states);

  // Step 1: reduce (Proviso 2.3 on Def. 2.8). Content symbol a of state q
  // leads to δ(q, a), and the start symbols' states are the roots; the
  // reduction minimizes every kept content, restricted to kept
  // successors, over Σ.
  ContentGraph graph;
  graph.successor = &delta;
  for (int q = 0; q < num_states; ++q) {
    graph.content.push_back(q == init ? nullptr : &input.content[q]);
  }
  std::vector<int> roots;
  for (int a : input.start_symbols) {
    if (delta.Next(init, a) != kNoState) roots.push_back(delta.Next(init, a));
  }
  StatusOr<GraphReduction> reduced = ReduceGraph(graph, roots, budget);
  if (!reduced.ok()) return reduced.status();
  span.AddArg("distinct_contents",
              static_cast<int64_t>(reduced->contents.size()));
  const std::vector<bool>& useful = reduced->useful;
  auto content_of = [&](int q) -> const Dfa& {
    return reduced->contents[reduced->content_of[q]];
  };

  // The reduced automaton: q_init becomes state 0 and the useful states
  // follow in their input order. A state keeps the transitions on the
  // symbols that occur in its minimized content; q_init keeps those on
  // the surviving start symbols.
  std::vector<int> kept = {init};  // reduced state -> input state
  std::vector<int> reduced_of(num_states, kNoState);
  reduced_of[init] = 0;
  for (int q = 0; q < num_states; ++q) {
    if (useful[q]) {
      reduced_of[q] = static_cast<int>(kept.size());
      kept.push_back(q);
    }
  }
  const int n = static_cast<int>(kept.size());
  Dfa automaton(n, num_symbols);
  std::vector<int> start_symbols;
  for (int a : input.start_symbols) {
    const int r = delta.Next(init, a);
    if (r == kNoState || !useful[r]) continue;
    start_symbols.push_back(a);
    automaton.SetTransition(0, a, reduced_of[r]);
  }
  for (int i = 1; i < n; ++i) {
    const Dfa& content = content_of(kept[i]);
    for (int s = 0; s < content.num_states(); ++s) {
      for (int a = 0; a < num_symbols; ++a) {
        if (content.Next(s, a) != kNoState) {
          automaton.SetTransition(i, a, reduced_of[delta.Next(kept[i], a)]);
        }
      }
    }
  }
  span.AddArg("states_reduced", n);
  // Charge what step 1 materialized: the reduced automaton and a content
  // DFA per state (q_init's is the one-state empty language). The
  // refinement below never adds states.
  int64_t states_built = n + 1;
  for (int i = 1; i < n; ++i) states_built += content_of(kept[i]).num_states();
  STAP_RETURN_IF_ERROR(Budget::ChargeStates(budget, states_built));

  // Step 2: initial partition by (label, content language). Content DFAs
  // are canonical minimal automata here, so structural equality decides
  // language equality. q_init always forms its own block.
  const Dfa none = Dfa::EmptyLanguage(num_symbols);
  Interner<ContentKey, ContentKeyHash> content_ids(n);
  std::vector<int> block(n);
  block[0] = content_ids.Intern({kNoSymbol, &none}).first;
  for (int i = 1; i < n; ++i) {
    block[i] = content_ids
                   .Intern({input.state_label[kept[i]], &content_of(kept[i])})
                   .first;
  }

  // Step 3: refine by successor blocks until stable (a missing
  // transition separates states as a block of its own would). Refinement
  // never grows the state count, so only the wall-clock deadline can
  // exhaust; RefinePartition checks it once per splitter.
  int64_t splitters = 0;
  StatusOr<int> num_blocks = RefinePartition(automaton, content_ids.size(),
                                             &block, budget, &splitters);
  if (!num_blocks.ok()) return num_blocks.status();

  // Step 4: the canonical quotient, then each block's label, content and
  // provenance. A source regex survives only if it mentions kept
  // successors alone, since restricting the content may have changed its
  // language elsewhere. Merged states share one content language (the
  // initial partition keys on it), so any member's surviving source
  // serves the block; the last one in input order wins.
  std::vector<int> state_of_block;
  DfaXsd result;
  result.sigma = input.sigma;
  result.start_symbols = std::move(start_symbols);
  result.automaton =
      CanonicalQuotient(automaton, block, *num_blocks, &state_of_block);
  const int m = result.automaton.num_states();
  result.state_label.assign(m, kNoSymbol);
  result.content.assign(m, none);
  // An empty language keeps no provenance table at all.
  if (!input.content_source.empty() && n > 1) {
    result.content_source.resize(m);
  }
  std::vector<int> kept_symbols(num_symbols);
  for (int i = 1; i < n; ++i) {
    const int q = kept[i];
    const int s = state_of_block[block[i]];
    if (result.state_label[s] == kNoSymbol) {  // the block's first member
      result.state_label[s] = input.state_label[q];
      result.content[s] = content_of(q);
    }
    if (result.content_source.empty() || input.content_source[q] == nullptr) {
      continue;
    }
    for (int a = 0; a < num_symbols; ++a) {
      const int r = delta.Next(q, a);
      kept_symbols[a] = r != kNoState && useful[r] ? a : kNoSymbol;
    }
    if (Regex::Substitute(input.content_source[q], kept_symbols) != nullptr) {
      result.content_source[s] = input.content_source[q];
    }
  }
  result.CheckWellFormed();
  span.AddArg("splitters", splitters);
  span.AddArg("xsd_states", m);
  return result;
}

bool XsdStructurallyEqual(const DfaXsd& a, const DfaXsd& b) {
  return a.sigma == b.sigma && a.start_symbols == b.start_symbols &&
         a.automaton == b.automaton && a.state_label == b.state_label &&
         a.content == b.content;
}

}  // namespace stap
