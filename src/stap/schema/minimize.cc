#include "stap/schema/minimize.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "stap/automata/interner.h"
#include "stap/automata/minimize.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

// The initial-partition key: a state's label and its canonical content
// DFA, by pointer into the reduced automaton (which outlives the table).
// q_init's label is kNoSymbol, which no other state carries, so it keys a
// block of its own.
struct ContentKey {
  int label;
  const Dfa* content;
  bool operator==(const ContentKey& other) const {
    return label == other.label && *content == *other.content;
  }
};

// A structural hash of `dfa`, mixed into `seed`.
uint64_t HashDfa(const Dfa& dfa, uint64_t seed) {
  uint64_t h = MixU64(seed ^ static_cast<uint64_t>(dfa.num_states()));
  for (int s = 0; s < dfa.num_states(); ++s) {
    h = MixU64(h ^ (dfa.IsFinal(s) ? 1u : 0u));
    for (int a = 0; a < dfa.num_symbols(); ++a) {
      h = MixU64(h ^ static_cast<uint32_t>(dfa.Next(s, a)));
    }
  }
  return h;
}

struct ContentKeyHash {
  size_t operator()(const ContentKey& key) const {
    return static_cast<size_t>(
        HashDfa(*key.content, MixU64(static_cast<uint32_t>(key.label))));
  }
};

struct DfaHash {
  size_t operator()(const Dfa& dfa) const {
    return static_cast<size_t>(HashDfa(dfa, 0));
  }
};

// Reduces the XSD automaton itself (Proviso 2.3 on Def. 2.8): drops the
// unproductive and unreachable states, restricts and minimizes every kept
// content over Σ, and keeps transitions only on symbols that occur in the
// kept content (from q_init: only the surviving start symbols). q_init
// becomes state 0 and the kept states follow in their input order.
// `*distinct_contents` receives the number of Minimize calls made.
StatusOr<DfaXsd> ReduceXsd(const DfaXsd& input, Budget* budget,
                           int* distinct_contents) {
  const int num_states = input.automaton.num_states();
  const int num_symbols = input.sigma.size();
  const int init = input.automaton.initial();
  const Dfa& delta = input.automaton;

  // content[q] restricted to the symbols a whose δ(q, a) is productive.
  std::vector<bool> productive(num_states, false);
  auto restricted = [&](int q) {
    const Dfa& content = input.content[q];
    Dfa result(std::max(content.num_states(), 1), num_symbols);
    if (content.num_states() == 0) return result;
    result.SetInitial(content.initial());
    for (int s = 0; s < content.num_states(); ++s) {
      if (content.IsFinal(s)) result.SetFinal(s);
      for (int a = 0; a < num_symbols; ++a) {
        int next = content.Next(s, a);
        int r = delta.Next(q, a);
        if (next != kNoState && r != kNoState && productive[r]) {
          result.SetTransition(s, a, next);
        }
      }
    }
    return result;
  };

  // q is productive iff its restricted content is non-empty. Found with a
  // worklist over predecessors: q is re-tested only when one of its
  // successors turns productive, at most |Σ| times. δ(q, ·) reaches a
  // state on one symbol at most (its label), so no list holds duplicates.
  std::vector<std::vector<int>> preds(num_states);
  for (int q = 0; q < num_states; ++q) {
    if (q == init) continue;
    for (int a = 0; a < num_symbols; ++a) {
      int r = delta.Next(q, a);
      if (r != kNoState) preds[r].push_back(q);
    }
  }
  std::vector<int> worklist;
  for (int q = 0; q < num_states; ++q) {
    if (q != init && !restricted(q).IsEmpty()) {
      productive[q] = true;
      worklist.push_back(q);
    }
  }
  while (!worklist.empty()) {
    int r = worklist.back();
    worklist.pop_back();
    for (int q : preds[r]) {
      if (!productive[q] && !restricted(q).IsEmpty()) {
        productive[q] = true;
        worklist.push_back(q);
      }
    }
  }

  // Reachable states, from the surviving start symbols along the symbols
  // that occur in the restricted content. Each reached state's content is
  // restricted to productive successors and minimized over Σ, once per
  // distinct restricted content (Construction 3.1 gives many states equal
  // contents); the canonical minimal DFA has no dead states, so its
  // transition symbols are exactly the occurring ones.
  std::vector<bool> reached(num_states, false);
  Interner<Dfa, DfaHash> restricted_ids;
  std::vector<Dfa> minimized;  // restricted content id -> minimal
  std::vector<int> content_of(num_states, -1);
  std::vector<int> start_symbols;
  for (int a : input.start_symbols) {
    int r = delta.Next(init, a);
    if (r == kNoState || !productive[r]) continue;
    start_symbols.push_back(a);
    if (!reached[r]) {
      reached[r] = true;
      worklist.push_back(r);
    }
  }
  while (!worklist.empty()) {
    int q = worklist.back();
    worklist.pop_back();
    auto [id, inserted] = restricted_ids.Intern(restricted(q));
    if (inserted) {
      StatusOr<Dfa> minimal = Minimize(restricted_ids[id], budget);
      if (!minimal.ok()) return minimal.status();
      minimized.push_back(*std::move(minimal));
    }
    content_of[q] = id;
    const Dfa& kept = minimized[id];
    for (int s = 0; s < kept.num_states(); ++s) {
      for (int a = 0; a < num_symbols; ++a) {
        if (kept.Next(s, a) == kNoState) continue;
        int r = delta.Next(q, a);
        if (!reached[r]) {
          reached[r] = true;
          worklist.push_back(r);
        }
      }
    }
  }

  *distinct_contents = restricted_ids.size();

  std::vector<int> remap(num_states, kNoState);
  remap[init] = 0;
  int num_kept = 1;
  for (int q = 0; q < num_states; ++q) {
    if (reached[q]) remap[q] = num_kept++;
  }
  DfaXsd xsd;
  xsd.sigma = input.sigma;
  xsd.automaton = Dfa(num_kept, num_symbols);
  xsd.automaton.SetInitial(0);
  xsd.state_label.assign(num_kept, kNoSymbol);
  xsd.content.assign(num_kept, Dfa::EmptyLanguage(num_symbols));
  // An empty language keeps no provenance table at all.
  if (!input.content_source.empty() && num_kept > 1) {
    xsd.content_source.resize(num_kept);
  }
  for (int a : start_symbols) {
    xsd.automaton.SetTransition(0, a, remap[delta.Next(init, a)]);
  }
  xsd.start_symbols = std::move(start_symbols);
  // Σ symbol -> itself where δ(q, a) is kept; a source regex survives
  // only if it mentions kept successors alone, since restricting the
  // content may have changed its language elsewhere.
  std::vector<int> kept_symbols(num_symbols);
  for (int q = 0; q < num_states; ++q) {
    if (!reached[q]) continue;
    const int id = remap[q];
    xsd.state_label[id] = input.state_label[q];
    xsd.content[id] = minimized[content_of[q]];
    const Dfa& kept = xsd.content[id];
    for (int s = 0; s < kept.num_states(); ++s) {
      for (int a = 0; a < num_symbols; ++a) {
        if (kept.Next(s, a) != kNoState) {
          xsd.automaton.SetTransition(id, a, remap[delta.Next(q, a)]);
        }
      }
    }
    if (!xsd.content_source.empty() && input.content_source[q] != nullptr) {
      for (int a = 0; a < num_symbols; ++a) {
        int r = delta.Next(q, a);
        kept_symbols[a] = r != kNoState && reached[r] ? a : kNoSymbol;
      }
      if (Regex::Substitute(input.content_source[q], kept_symbols) !=
          nullptr) {
        xsd.content_source[id] = input.content_source[q];
      }
    }
  }
  return xsd;
}

// BFS canonical renumbering (q_init becomes state 0).
DfaXsd Canonicalize(const DfaXsd& xsd) {
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  const int init = xsd.automaton.initial();
  std::vector<int> remap(n, kNoState);
  std::vector<int> order = {init};
  remap[init] = 0;
  std::deque<int> queue = {init};
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState && remap[r] == kNoState) {
        remap[r] = static_cast<int>(order.size());
        order.push_back(r);
        queue.push_back(r);
      }
    }
  }
  DfaXsd result;
  result.sigma = xsd.sigma;
  result.start_symbols = xsd.start_symbols;
  result.automaton = Dfa(static_cast<int>(order.size()), num_symbols);
  result.automaton.SetInitial(0);
  result.state_label.resize(order.size());
  result.content.resize(order.size(), Dfa::EmptyLanguage(num_symbols));
  if (!xsd.content_source.empty()) result.content_source.resize(order.size());
  for (int q : order) {
    result.state_label[remap[q]] = xsd.state_label[q];
    result.content[remap[q]] = xsd.content[q];
    if (!xsd.content_source.empty()) {
      result.content_source[remap[q]] = xsd.content_source[q];
    }
    for (int a = 0; a < num_symbols; ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState && remap[r] != kNoState) {
        result.automaton.SetTransition(remap[q], a, remap[r]);
      }
    }
  }
  return result;
}

}  // namespace

DfaXsd MinimizeXsd(const DfaXsd& input) {
  StatusOr<DfaXsd> result = MinimizeXsd(input, nullptr);
  return *std::move(result);  // a null budget never exhausts
}

StatusOr<DfaXsd> MinimizeXsd(const DfaXsd& input, Budget* budget) {
  ScopedSpan span("schema.minimize_xsd");
  input.CheckWellFormed();
  span.AddArg("states_in", input.automaton.num_states());
  // Step 1: reduce the XSD automaton; this prunes unproductive and
  // unreachable states and canonicalizes every content DFA.
  int distinct_contents = 0;
  StatusOr<DfaXsd> reduced = ReduceXsd(input, budget, &distinct_contents);
  if (!reduced.ok()) return reduced.status();
  span.AddArg("distinct_contents", distinct_contents);
  const DfaXsd& xsd = *reduced;
  const int n = xsd.automaton.num_states();
  const int num_symbols = xsd.sigma.size();
  span.AddArg("states_reduced", n);
  // Charge what step 1 materialized: the reduced automaton and its
  // canonical content DFAs. The refinement below never adds states.
  int64_t states_built = n;
  for (const Dfa& content : xsd.content) states_built += content.num_states();
  STAP_RETURN_IF_ERROR(Budget::ChargeStates(budget, states_built));

  // Step 2: initial partition by (label, content language). Content DFAs
  // are canonical minimal automata here, so structural equality decides
  // language equality. q_init always forms its own block.
  Interner<ContentKey, ContentKeyHash> content_ids(n);
  std::vector<int> block(n);
  for (int q = 0; q < n; ++q) {
    block[q] = content_ids.Intern({xsd.state_label[q], &xsd.content[q]}).first;
  }

  // Step 3: refine by successor blocks until stable (a missing
  // transition separates states as a block of its own would). Refinement
  // never grows the state count, so only the wall-clock deadline can
  // exhaust; RefinePartition checks it once per splitter.
  int64_t splitters = 0;
  StatusOr<int> refined = RefinePartition(xsd.automaton, content_ids.size(),
                                          &block, budget, &splitters);
  if (!refined.ok()) return refined.status();
  const int num_blocks = *refined;

  // Step 4: build the quotient. Blocks are numbered in order of their
  // least state, so q_init (state 0) keeps block 0.
  DfaXsd quotient;
  quotient.sigma = xsd.sigma;
  quotient.start_symbols = xsd.start_symbols;
  quotient.automaton = Dfa(num_blocks, num_symbols);
  quotient.automaton.SetInitial(0);
  quotient.state_label.assign(num_blocks, kNoSymbol);
  quotient.content.assign(num_blocks, Dfa::EmptyLanguage(num_symbols));
  if (!xsd.content_source.empty()) quotient.content_source.resize(num_blocks);
  for (int q = 0; q < n; ++q) {
    const int b = block[q];
    quotient.state_label[b] = xsd.state_label[q];
    quotient.content[b] = xsd.content[q];
    if (!xsd.content_source.empty() && xsd.content_source[q] != nullptr) {
      // Merged states share one content language (the initial partition
      // keys on it), so any member's provenance serves the block.
      quotient.content_source[b] = xsd.content_source[q];
    }
    for (int a = 0; a < num_symbols; ++a) {
      const int r = xsd.automaton.Next(q, a);
      if (r != kNoState) quotient.automaton.SetTransition(b, a, block[r]);
    }
  }

  DfaXsd result = Canonicalize(quotient);
  result.CheckWellFormed();
  span.AddArg("splitters", splitters);
  span.AddArg("xsd_states", result.automaton.num_states());
  return result;
}

bool XsdStructurallyEqual(const DfaXsd& a, const DfaXsd& b) {
  return a.sigma == b.sigma && a.start_symbols == b.start_symbols &&
         a.automaton == b.automaton && a.state_label == b.state_label &&
         a.content == b.content;
}

}  // namespace stap
