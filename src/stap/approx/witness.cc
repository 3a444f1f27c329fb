#include "stap/approx/witness.h"

#include <unordered_map>
#include <utility>
#include <vector>

#include "stap/automata/inclusion.h"
#include "stap/automata/interner.h"
#include "stap/automata/ops.h"
#include "stap/base/check.h"
#include "stap/schema/reduce.h"
#include "stap/schema/type_automaton.h"

namespace stap {

namespace {

// DFA for { w : w contains `symbol` }.
Dfa ContainsSymbol(int symbol, int num_symbols) {
  Dfa dfa(2, num_symbols);
  dfa.SetFinal(1);
  for (int a = 0; a < num_symbols; ++a) {
    dfa.SetTransition(0, a, a == symbol ? 1 : 0);
    dfa.SetTransition(1, a, 1);
  }
  return dfa;
}

// Expands an XSD to a larger alphabet (new symbols are everywhere
// undeclared).
DfaXsd ExpandXsdAlphabet(const DfaXsd& xsd, const Alphabet& merged) {
  STAP_CHECK(merged.size() >= xsd.sigma.size());
  DfaXsd result = xsd;
  result.sigma = merged;
  Dfa automaton(xsd.automaton.num_states(), merged.size());
  automaton.SetInitial(0);
  for (int q = 0; q < xsd.automaton.num_states(); ++q) {
    for (int a = 0; a < xsd.sigma.size(); ++a) {
      int r = xsd.automaton.Next(q, a);
      if (r != kNoState) automaton.SetTransition(q, a, r);
    }
  }
  result.automaton = std::move(automaton);
  result.state_label.resize(xsd.automaton.num_states());
  for (size_t q = 0; q < result.content.size(); ++q) {
    const Dfa& content = xsd.content[q];
    Dfa expanded(std::max(content.num_states(), 1), merged.size());
    if (content.num_states() > 0) {
      expanded.SetInitial(content.initial());
      for (int s = 0; s < content.num_states(); ++s) {
        if (content.IsFinal(s)) expanded.SetFinal(s);
        for (int a = 0; a < content.num_symbols(); ++a) {
          int r = content.Next(s, a);
          if (r != kNoState) expanded.SetTransition(s, a, r);
        }
      }
    }
    result.content[q] = std::move(expanded);
  }
  return result;
}

// A word of d1.content[tau] containing `needle`, shortest first.
std::optional<Word> ContentWordContaining(const Edtd& d1, int tau,
                                          int needle) {
  Dfa filtered = DfaIntersection(d1.content[tau],
                                 ContainsSymbol(needle, d1.num_types()));
  Word word;
  if (!filtered.ShortestWord(&word)) return std::nullopt;
  return word;
}

}  // namespace

std::vector<Tree> MinimalTypeTrees(const Edtd& edtd) {
  STAP_CHECK(IsReduced(edtd));
  const int n = edtd.num_types();
  std::vector<std::optional<Tree>> witness(n);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int tau = 0; tau < n; ++tau) {
      if (witness[tau].has_value()) continue;
      // Restrict the content model to types that already have a witness.
      const Dfa& content = edtd.content[tau];
      if (content.num_states() == 0) continue;
      Dfa restricted(content.num_states(), n);
      restricted.SetInitial(content.initial());
      for (int s = 0; s < content.num_states(); ++s) {
        if (content.IsFinal(s)) restricted.SetFinal(s);
        for (int t = 0; t < n; ++t) {
          if (!witness[t].has_value()) continue;
          int r = content.Next(s, t);
          if (r != kNoState) restricted.SetTransition(s, t, r);
        }
      }
      Word word;
      if (!restricted.ShortestWord(&word)) continue;
      Tree tree(edtd.mu[tau]);
      for (int t : word) tree.children.push_back(*witness[t]);
      witness[tau] = std::move(tree);
      changed = true;
    }
  }
  std::vector<Tree> result;
  result.reserve(n);
  for (int tau = 0; tau < n; ++tau) {
    STAP_CHECK(witness[tau].has_value());  // reduced => productive
    result.push_back(*std::move(witness[tau]));
  }
  return result;
}

std::optional<Tree> XsdInclusionWitness(const Edtd& d1_in,
                                        const DfaXsd& xsd2_in) {
  Edtd d1 = ReduceEdtd(d1_in);
  if (d1.num_types() == 0) return std::nullopt;  // ∅ ⊆ anything

  // Align the alphabets: d1 over the merged alphabet, xsd2 expanded.
  Alphabet merged = xsd2_in.sigma;
  std::vector<int> remap(d1.sigma.size());
  for (int a = 0; a < d1.sigma.size(); ++a) {
    remap[a] = merged.Intern(d1.sigma.Name(a));
  }
  for (int tau = 0; tau < d1.num_types(); ++tau) d1.mu[tau] = remap[d1.mu[tau]];
  d1.sigma = merged;
  DfaXsd xsd2 = ExpandXsdAlphabet(xsd2_in, merged);

  const int num_symbols = merged.size();
  TypeAutomaton a1 = BuildTypeAutomaton(d1);
  std::vector<Tree> minimal = MinimalTypeTrees(d1);

  // Root violations: a D1 start label the XSD does not allow.
  const int xsd2_init = xsd2.automaton.initial();
  for (int tau : d1.start_types) {
    if (!StateSetContains(xsd2.start_symbols, d1.mu[tau]) ||
        xsd2.automaton.Next(xsd2_init, d1.mu[tau]) == kNoState) {
      return minimal[tau];
    }
  }

  // Pair BFS with parent pointers.
  struct Node {
    int s1;      // type-automaton state of d1
    int q2;      // XSD state
    int parent;  // node index, -1 at the root pair
  };
  std::unordered_map<uint64_t, int, U64Hash> ids;
  std::vector<Node> nodes;
  auto visit = [&](int s1, int q2, int parent) {
    auto [it, inserted] =
        ids.emplace(PackPair(s1, q2), static_cast<int>(nodes.size()));
    if (inserted) nodes.push_back(Node{s1, q2, parent});
  };
  visit(TypeAutomaton::kInit, xsd2_init, -1);

  for (size_t current = 0; current < nodes.size(); ++current) {
    const int s1 = nodes[current].s1;
    const int q2 = nodes[current].q2;
    if (s1 != TypeAutomaton::kInit) {
      const int tau = TypeAutomaton::TypeOfState(s1);
      // Does d1's content at tau escape the XSD's content at q2?
      // Work over the type alphabet so the witness word carries types.
      Dfa lifted_f2 =
          InverseHomomorphism(xsd2.content[q2], d1.mu, d1.num_types());
      std::optional<Word> bad_children =
          DfaInclusionCounterexample(d1.content[tau], lifted_f2);
      if (bad_children.has_value()) {
        // Assemble the offending node...
        Tree offending(d1.mu[tau]);
        for (int child_type : *bad_children) {
          offending.children.push_back(minimal[child_type]);
        }
        // ...and wrap it in minimal valid levels up to the root. Walk the
        // parent chain; at each step the current subtree's type is known.
        int child_tau = tau;
        Tree subtree = std::move(offending);
        int node_index = nodes[current].parent;
        while (node_index >= 0 && nodes[node_index].s1 != TypeAutomaton::kInit) {
          int parent_tau = TypeAutomaton::TypeOfState(nodes[node_index].s1);
          std::optional<Word> level =
              ContentWordContaining(d1, parent_tau, child_tau);
          STAP_CHECK(level.has_value());  // the BFS followed a real edge
          Tree parent_tree(d1.mu[parent_tau]);
          bool placed = false;
          for (int t : *level) {
            if (!placed && t == child_tau) {
              parent_tree.children.push_back(subtree);
              placed = true;
            } else {
              parent_tree.children.push_back(minimal[t]);
            }
          }
          STAP_CHECK(placed);
          subtree = std::move(parent_tree);
          child_tau = parent_tau;
          node_index = nodes[node_index].parent;
        }
        return subtree;
      }
    }
    // Expand (same pruning rationale as the inclusion test: a dead XSD
    // transition implies the content check above fires first).
    for (int a = 0; a < num_symbols; ++a) {
      const StateSet& succ1 = a1.nfa.Next(s1, a);
      if (succ1.empty()) continue;
      int q2_next = xsd2.automaton.Next(q2, a);
      if (q2_next == kNoState) continue;
      for (int s1_next : succ1) {
        visit(s1_next, q2_next, static_cast<int>(current));
      }
    }
  }
  return std::nullopt;
}

}  // namespace stap
