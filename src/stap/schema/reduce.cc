#include "stap/schema/reduce.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "stap/automata/interner.h"
#include "stap/automata/minimize.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"

namespace stap {

namespace {

ContentGraph EdtdGraph(const Edtd& edtd) {
  ContentGraph graph;
  graph.content.reserve(edtd.content.size());
  for (const Dfa& dfa : edtd.content) graph.content.push_back(&dfa);
  return graph;
}

}  // namespace

// Productive nodes: the least fixpoint of "the content language contains
// a word over productive nodes", by one backward worklist over every
// content DFA at once. A content state is live when it reaches a final
// state over productive nodes: final states are live, and a transition
// s –a→ r of node v makes s live once a's node Next(v, a) is productive
// and r is live. A node is productive once its initial state is live.
// Each transition is looked at once from its target turning live and
// once from its node turning productive, so the fixpoint is linear in
// the graph. Useful nodes then follow by one forward walk from the roots
// over live content states, which visits each content state once.
std::vector<bool> UsefulNodes(const ContentGraph& graph,
                              const std::vector<int>& roots) {
  const int n = static_cast<int>(graph.content.size());
  // Content states numbered globally: node v's state s is offset[v]+s.
  std::vector<int> offset(n + 1, 0);
  for (int v = 0; v < n; ++v) {
    const Dfa* dfa = graph.content[v];
    offset[v + 1] = offset[v] + (dfa == nullptr ? 0 : dfa->num_states());
  }
  const int num_states = offset[n];
  std::vector<int> initial_of(num_states, kNoState);
  for (int v = 0; v < n; ++v) {
    if (offset[v + 1] > offset[v]) {
      initial_of[offset[v] + graph.content[v]->initial()] = v;
    }
  }

  // Every transition (source, node, target), bucketed by target and by
  // the node its symbol leads to (counting sort into flat arrays).
  struct Edge {
    int source, node, target;
  };
  std::vector<Edge> edges;
  for (int v = 0; v < n; ++v) {
    if (graph.content[v] == nullptr) continue;
    const Dfa& dfa = *graph.content[v];
    for (int s = 0; s < dfa.num_states(); ++s) {
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        const int r = dfa.Next(s, a);
        const int w = r == kNoState ? kNoState : graph.Next(v, a);
        if (w != kNoState) edges.push_back({offset[v] + s, w, offset[v] + r});
      }
    }
  }
  auto bucket = [&edges](int num_buckets, auto key) {
    std::vector<int> begin(num_buckets + 1, 0);
    for (const Edge& e : edges) ++begin[key(e) + 1];
    for (int i = 0; i < num_buckets; ++i) begin[i + 1] += begin[i];
    std::vector<int> order(edges.size());
    std::vector<int> fill(begin.begin(), begin.end() - 1);
    for (int i = 0; i < static_cast<int>(edges.size()); ++i) {
      order[fill[key(edges[i])]++] = i;
    }
    return std::pair(std::move(begin), std::move(order));
  };
  const auto [by_target_begin, by_target] =
      bucket(num_states, [](const Edge& e) { return e.target; });
  const auto [by_node_begin, by_node] =
      bucket(n, [](const Edge& e) { return e.node; });

  std::vector<bool> productive(n, false);
  std::vector<bool> live(num_states, false);
  std::vector<int> live_stack, productive_stack;
  auto mark_live = [&](int state) {
    if (live[state]) return;
    live[state] = true;
    live_stack.push_back(state);
    const int v = initial_of[state];
    if (v != kNoState && !productive[v]) {
      productive[v] = true;
      productive_stack.push_back(v);
    }
  };
  for (int v = 0; v < n; ++v) {
    for (int s = 0; s < offset[v + 1] - offset[v]; ++s) {
      if (graph.content[v]->IsFinal(s)) mark_live(offset[v] + s);
    }
  }
  while (!live_stack.empty() || !productive_stack.empty()) {
    if (!live_stack.empty()) {
      const int r = live_stack.back();
      live_stack.pop_back();
      for (int i = by_target_begin[r]; i < by_target_begin[r + 1]; ++i) {
        const Edge& e = edges[by_target[i]];
        if (productive[e.node]) mark_live(e.source);
      }
      continue;
    }
    const int w = productive_stack.back();
    productive_stack.pop_back();
    for (int i = by_node_begin[w]; i < by_node_begin[w + 1]; ++i) {
      const Edge& e = edges[by_node[i]];
      if (live[e.target]) mark_live(e.source);
    }
  }

  // A transition s –a→ r from a visited (so accessible) state lies on an
  // accepted word over productive nodes iff a's node is productive and r
  // is live; only such transitions are walked and mark a's node useful.
  std::vector<bool> useful(n, false);
  std::vector<bool> visited(num_states, false);
  std::vector<int> node_stack, state_stack;
  for (int v : roots) {
    if (productive[v] && !useful[v]) {
      useful[v] = true;
      node_stack.push_back(v);
    }
  }
  while (!node_stack.empty()) {
    const int v = node_stack.back();
    node_stack.pop_back();
    const Dfa& dfa = *graph.content[v];
    visited[offset[v] + dfa.initial()] = true;
    state_stack.push_back(dfa.initial());
    while (!state_stack.empty()) {
      const int s = state_stack.back();
      state_stack.pop_back();
      for (int a = 0; a < dfa.num_symbols(); ++a) {
        const int r = dfa.Next(s, a);
        if (r == kNoState || !live[offset[v] + r]) continue;
        const int w = graph.Next(v, a);
        if (w == kNoState || !productive[w]) continue;
        if (!useful[w]) {
          useful[w] = true;
          node_stack.push_back(w);
        }
        if (!visited[offset[v] + r]) {
          visited[offset[v] + r] = true;
          state_stack.push_back(r);
        }
      }
    }
  }
  return useful;
}

StatusOr<GraphReduction> ReduceGraph(const ContentGraph& graph,
                                     const std::vector<int>& roots,
                                     Budget* budget) {
  const int n = static_cast<int>(graph.content.size());
  GraphReduction result;
  result.useful = UsefulNodes(graph, roots);
  // Where symbols name nodes, they are renumbered with the useful nodes.
  std::vector<int> rank(n, kNoSymbol);
  int num_useful = 0;
  for (int v = 0; v < n; ++v) {
    if (result.useful[v]) rank[v] = num_useful++;
  }
  result.content_of.assign(n, kNoState);
  // A useful node's accepted words over productive nodes use useful
  // nodes only, so restricting to those keeps the trimmed content.
  // Contents repeat across nodes (Construction 3.1 gives many states
  // equal contents), so each distinct restricted content is minimized
  // once.
  Interner<Dfa, DfaHash> restricted_ids;
  std::vector<int> kept_symbols;
  for (int v = 0; v < n; ++v) {
    if (!result.useful[v]) continue;
    const Dfa& content = *graph.content[v];
    kept_symbols.resize(content.num_symbols());
    for (int a = 0; a < content.num_symbols(); ++a) {
      const int w = graph.Next(v, a);
      kept_symbols[a] = w == kNoState || !result.useful[w] ? kNoSymbol
                        : graph.successor == nullptr       ? rank[w]
                                                           : a;
    }
    auto [id, inserted] = restricted_ids.Intern(RemapSymbols(
        content, kept_symbols,
        graph.successor == nullptr ? num_useful : content.num_symbols()));
    if (inserted) {
      StatusOr<Dfa> minimal = Minimize(restricted_ids[id], budget);
      if (!minimal.ok()) return minimal.status();
      result.contents.push_back(*std::move(minimal));
    }
    result.content_of[v] = id;
  }
  return result;
}

Edtd ReduceEdtd(const Edtd& input) {
  input.CheckWellFormed();
  const int n = input.num_types();
  StatusOr<GraphReduction> reduced =
      ReduceGraph(EdtdGraph(input), input.start_types, nullptr);
  STAP_CHECK(reduced.ok());  // a null budget never exhausts

  // Keep the useful types; renumber densely.
  std::vector<int> remap(n, kNoSymbol);
  Alphabet new_types;
  for (int tau = 0; tau < n; ++tau) {
    if (reduced->useful[tau]) {
      remap[tau] = new_types.Intern(input.types.Name(tau));
    }
  }
  const int new_n = new_types.size();

  Edtd result;
  result.sigma = input.sigma;
  result.types = new_types;
  result.mu.resize(new_n);
  result.content.resize(new_n);
  if (!input.content_source.empty()) result.content_source.resize(new_n);
  for (int tau = 0; tau < n; ++tau) {
    if (remap[tau] == kNoSymbol) continue;
    result.mu[remap[tau]] = input.mu[tau];
    result.content[remap[tau]] = reduced->contents[reduced->content_of[tau]];
    if (!input.content_source.empty() &&
        input.content_source[tau] != nullptr) {
      // A source mentioning a dropped (unproductive/unreachable) type
      // substitutes to nullptr: restricting the content language could
      // change it there, so the provenance is no longer trustworthy.
      result.content_source[remap[tau]] =
          Regex::Substitute(input.content_source[tau], remap);
    }
  }
  for (int tau : input.start_types) {
    if (remap[tau] != kNoSymbol) {
      StateSetInsert(result.start_types, remap[tau]);
    }
  }
  result.CheckWellFormed();
  return result;
}

bool IsReduced(const Edtd& edtd) {
  edtd.CheckWellFormed();
  const std::vector<bool> useful =
      UsefulNodes(EdtdGraph(edtd), edtd.start_types);
  return std::find(useful.begin(), useful.end(), false) == useful.end();
}

}  // namespace stap
