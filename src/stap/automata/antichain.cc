#include "stap/automata/antichain.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "stap/automata/bitset.h"
#include "stap/base/check.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

// Layered BFS core. The search expands one depth layer at a time; nodes
// are (a_state, b-set) pairs whose set is the EXACT set of b-states
// reachable on the node's path word (sets are only ever propagated along
// transitions, never merged), so an accepting pair certifies a real
// counterexample of exactly its depth.
//
// Pruning happens in two stages, both of which only ever compare against
// pairs with the SAME a-state:
//
//  1. Against kept elders (strictly smaller depth): a candidate (p, S')
//     is discarded when a kept (p, S) with S ⊆ S' exists — every
//     counterexample extension of S' is one of S, at smaller depth.
//     Elders are never dropped in favor of later smaller sets: an elder
//     sits at smaller depth, and removing it could lengthen the first
//     counterexample found.
//  2. Within the layer being built: candidates of equal depth are reduced
//     to the ⊆-minimal antichain (here pruning IS bidirectional — a
//     superset candidate may arrive before the subset that kills it).
//     This is what keeps the frontier polynomial on families like
//     (a+b)*a(a+b)^n, where every layer regenerates the full suffix
//     pattern space but only two sets per a-state are minimal; with
//     insertion-order-only pruning the supersets survive and the layer
//     widths double. Dropping a same-depth superset is witness-safe:
//     if (p, S') accepts (p final, S' ∩ F = ∅), then so does the
//     surviving (p, S ⊆ S') at the same depth.
//
// Acceptance is tested on every GENERATED candidate, before any pruning,
// so detection is not delayed by stage 2. Invariant: for every word w and
// a-state p reachable on w, a kept pair (p, T) with T ⊆ S_w exists at
// depth ≤ |w| (induction: the prefix's kept cover expands, its successor
// candidate is covered by whatever survives stages 1–2). Hence a shortest
// counterexample of length L forces an accepting candidate at some layer
// ≤ L, and any accepting candidate is exact — the first detection depth
// equals L, matching the determinize-based BFS oracle.
//
// Resource accounting: every kept node charges the budget's state quota,
// every generated successor set charges the set quota, and each layer
// boundary samples the deadline, so adversarial instances abort with
// kResourceExhausted after bounded work.
struct Node {
  int a_state;
  int parent;
  int via_symbol;
};

Word ReconstructWord(const std::vector<Node>& nodes, int parent, int via) {
  Word word;
  if (via != kNoSymbol) word.push_back(via);
  for (int cur = parent; cur >= 0 && nodes[cur].parent >= 0;
       cur = nodes[cur].parent) {
    word.push_back(nodes[cur].via_symbol);
  }
  std::reverse(word.begin(), word.end());
  return word;
}

}  // namespace

StatusOr<std::optional<Word>> AntichainInclusionCounterexample(
    const Nfa& a, const Nfa& b, Budget* budget) {
  static Counter* const calls = GetCounter("antichain.calls");
  static Counter* const nodes_kept = GetCounter("antichain.nodes_kept");
  static Counter* const candidates_generated =
      GetCounter("antichain.candidates");
  static Counter* const prunes_layer =
      GetCounter("antichain.subsumption_prunes_layer");
  static Counter* const prunes_elder =
      GetCounter("antichain.subsumption_prunes_elder");
  static Histogram* const frontier_size =
      GetHistogram("antichain.layer_width");
  calls->Increment();
  ScopedSpan call_span("antichain.inclusion");
  call_span.AddArg("a_states", a.num_states());
  call_span.AddArg("b_states", b.num_states());

  STAP_CHECK(a.num_symbols() == b.num_symbols());
  const int num_symbols = a.num_symbols();
  const DenseNfa dense_b(b);

  std::vector<Node> nodes;  // kept nodes, all layers
  std::deque<DenseStateSet> node_sets;      // parallel to nodes
  std::vector<std::vector<int>> kept(a.num_states());  // kept ids per p
  std::vector<int> layer;                   // node ids to expand next

  // Candidates of the layer being built. Successor sets are shared by all
  // a-successors of one (node, symbol) expansion via set ids.
  struct Cand {
    int set_id;
    int parent;
    int via_symbol;
  };
  std::deque<DenseStateSet> cand_sets;
  std::vector<std::vector<Cand>> cand(a.num_states());
  std::vector<int> cand_states;  // a-states with candidates this layer

  // Detected counterexample, if any: returns true when accepting.
  std::optional<Word> witness;
  auto offer = [&](int a_state, const DenseStateSet& s, int set_id,
                   int parent, int via) {
    candidates_generated->Increment();
    if (!witness.has_value() && a.IsFinal(a_state) && !dense_b.AnyFinal(s)) {
      witness = ReconstructWord(nodes, parent, via);
      return true;
    }
    if (cand[a_state].empty()) cand_states.push_back(a_state);
    cand[a_state].push_back(Cand{set_id, parent, via});
    return false;
  };

  // Per-settle tallies mirrored into the layer spans (the registry
  // counters are process-global, so per-layer deltas need locals).
  int64_t settle_prunes = 0;
  int64_t settle_kept = 0;

  // Folds the pending candidates into the kept frontier (stages 1 and 2)
  // and returns the new layer.
  auto settle = [&]() -> Status {
    settle_prunes = 0;
    settle_kept = 0;
    layer.clear();
    for (int p : cand_states) {
      // Stage 2 first: reduce this layer's candidates for p to the
      // ⊆-minimal antichain (survivors are not yet expanded, so dropping
      // a superset — in either arrival order — is safe).
      std::vector<Cand> minimal;
      for (const Cand& c : cand[p]) {
        const DenseStateSet& s = cand_sets[c.set_id];
        bool dominated = false;
        for (const Cand& m : minimal) {
          if (cand_sets[m.set_id].IsSubsetOf(s)) {
            dominated = true;
            break;
          }
        }
        if (dominated) {
          prunes_layer->Increment();
          ++settle_prunes;
          continue;
        }
        const size_t before = minimal.size();
        minimal.erase(
            std::remove_if(minimal.begin(), minimal.end(),
                           [&](const Cand& m) {
                             return s.IsSubsetOf(cand_sets[m.set_id]);
                           }),
            minimal.end());
        prunes_layer->Increment(static_cast<int64_t>(before - minimal.size()));
        settle_prunes += static_cast<int64_t>(before - minimal.size());
        minimal.push_back(c);
      }
      // Stage 1: drop survivors covered by kept elders.
      for (const Cand& c : minimal) {
        const DenseStateSet& s = cand_sets[c.set_id];
        bool dominated = false;
        for (int id : kept[p]) {
          if (node_sets[id].IsSubsetOf(s)) {
            dominated = true;
            break;
          }
        }
        if (dominated) {
          prunes_elder->Increment();
          ++settle_prunes;
          continue;
        }
        int id = static_cast<int>(nodes.size());
        kept[p].push_back(id);
        layer.push_back(id);
        nodes.push_back(Node{p, c.parent, c.via_symbol});
        node_sets.push_back(cand_sets[c.set_id]);
        nodes_kept->Increment();
        ++settle_kept;
        STAP_RETURN_IF_ERROR(Budget::ChargeStates(budget));
      }
      cand[p].clear();
    }
    cand_states.clear();
    cand_sets.clear();
    frontier_size->Record(static_cast<double>(layer.size()));
    return Status();
  };

  // Depth-0 candidates: every a-initial state against the b-initial set.
  {
    ScopedSpan layer_span("antichain.layer");
    layer_span.AddArg("depth", 0);
    const DenseStateSet& init = dense_b.initial();
    cand_sets.push_back(init);
    STAP_RETURN_IF_ERROR(Budget::ChargeSets(budget));
    for (int p : a.initial()) {
      if (offer(p, init, 0, -1, kNoSymbol)) return witness;
    }
    STAP_RETURN_IF_ERROR(settle());
    layer_span.AddArg("frontier", layer.size());
    layer_span.AddArg("prunes", settle_prunes);
  }

  DenseStateSet scratch(b.num_states());
  int depth = 0;
  while (!layer.empty()) {
    ScopedSpan layer_span("antichain.layer");
    layer_span.AddArg("depth", ++depth);
    STAP_RETURN_IF_ERROR(Budget::CheckDeadline(budget));
    std::vector<int> current;
    std::swap(current, layer);
    layer_span.AddArg("expanded", current.size());
    for (int id : current) {
      const int p = nodes[id].a_state;
      for (int sym = 0; sym < num_symbols; ++sym) {
        const StateSet& succ = a.Next(p, sym);
        if (succ.empty()) continue;
        dense_b.NextInto(node_sets[id], sym, &scratch);
        int set_id = static_cast<int>(cand_sets.size());
        cand_sets.push_back(scratch);
        STAP_RETURN_IF_ERROR(Budget::ChargeSets(budget));
        for (int p_next : succ) {
          if (offer(p_next, scratch, set_id, id, sym)) return witness;
        }
      }
    }
    STAP_RETURN_IF_ERROR(settle());
    // Frontier width and subsumption prunes of THIS layer — the numbers
    // that distinguish a polynomial frontier from the 2^n blowup.
    layer_span.AddArg("frontier", layer.size());
    layer_span.AddArg("kept", settle_kept);
    layer_span.AddArg("prunes", settle_prunes);
  }
  call_span.AddArg("nodes_kept", nodes.size());
  call_span.AddArg("layers", depth + 1);
  return std::optional<Word>(std::nullopt);
}

StatusOr<bool> AntichainIncluded(const Nfa& a, const Nfa& b,
                                 Budget* budget) {
  StatusOr<std::optional<Word>> witness =
      AntichainInclusionCounterexample(a, b, budget);
  if (!witness.ok()) return witness.status();
  return !witness->has_value();
}

StatusOr<std::optional<Word>> AntichainUniversalityCounterexample(
    const Nfa& nfa, Budget* budget) {
  // Universality is inclusion of Σ* — run the engine against the
  // one-state all-accepting NFA on the left.
  const int num_symbols = nfa.num_symbols();
  Nfa all(1, num_symbols);
  all.AddInitial(0);
  all.SetFinal(0);
  for (int sym = 0; sym < num_symbols; ++sym) {
    all.AddTransition(0, sym, 0);
  }
  return AntichainInclusionCounterexample(all, nfa, budget);
}

bool AntichainUniversal(const Nfa& nfa) {
  // A null budget never exhausts.
  return !AntichainUniversalityCounterexample(nfa)->has_value();
}

StatusOr<bool> AntichainEquivalent(const Nfa& a, const Nfa& b,
                                   Budget* budget) {
  StatusOr<bool> forward = AntichainIncluded(a, b, budget);
  if (!forward.ok() || !*forward) return forward;
  return AntichainIncluded(b, a, budget);
}

}  // namespace stap
