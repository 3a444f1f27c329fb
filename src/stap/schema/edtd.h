// Extended DTDs (paper, Definition 2.2).
//
// An EDTD is a DTD over a type alphabet ∆ together with a labeling
// μ : ∆ -> Σ. EDTDs capture exactly the unranked regular tree languages;
// single-type EDTDs (Definition 2.4) are the XSD abstraction.
//
// Content models d(τ) are regular languages over ∆, stored as DFAs whose
// alphabet is the type alphabet. Most algorithms assume a *reduced* EDTD
// (Proviso 2.3): every type occurs in some accepted tree. Use
// ReduceEdtd() from schema/reduce.h to establish that invariant.
#ifndef STAP_SCHEMA_EDTD_H_
#define STAP_SCHEMA_EDTD_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "stap/automata/alphabet.h"
#include "stap/automata/dfa.h"
#include "stap/regex/ast.h"
#include "stap/schema/dtd.h"
#include "stap/tree/tree.h"

namespace stap {

struct Edtd {
  Alphabet sigma;                // Σ
  Alphabet types;                // ∆ (names, for printing)
  std::vector<int> mu;           // μ : type id -> symbol id
  std::vector<int> start_types;  // sorted set S_d ⊆ ∆
  std::vector<Dfa> content;      // content[τ] over ∆

  // Optional content-model provenance: the regex (over ∆) each content
  // DFA was compiled from, preserving counted repetition r{n,m} that the
  // DFA expands away. Either empty (no provenance) or sized num_types(),
  // entry-wise nullable. Invariant: content_source[τ] != nullptr implies
  // L(content_source[τ]) == L(content[τ]). Transformations that cannot
  // maintain the invariant null the entry; consumers (export, printing)
  // must treat it as a hint, never as the ground truth.
  std::vector<RegexPtr> content_source;

  // Views a DTD as the EDTD with one type per symbol.
  static Edtd FromDtd(const Dtd& dtd);

  int num_types() const { return static_cast<int>(mu.size()); }
  int num_symbols() const { return sigma.size(); }

  // |Σ| + size of the underlying DTD over ∆ (paper's size measure).
  int64_t Size() const;

  // Membership test: does some typing of `tree` satisfy the schema?
  // Runs the standard bottom-up unranked-tree-automaton evaluation,
  // polynomial in |tree| * |this|.
  bool Accepts(const Tree& tree) const;

  // The set of types assignable to the root of `subtree` when it occurs
  // as a subtree (ignores start_types). Sorted.
  std::vector<int> PossibleTypes(const Tree& subtree) const;

  // The set of types occurring in some word of L(content[tau]); sorted.
  // This is the transition relation of the type automaton (Def. 2.5).
  std::vector<int> OccurringTypes(int tau) const;

  // Structural sanity checks (sizes agree, ids in range).
  void CheckWellFormed() const;

  std::string ToString() const;
};

// The bottom-up walk behind Edtd::PossibleTypes and EdtdNfa::Accepts, with
// the per-node type step as its parameter: `types_of_node(label,
// child_types, &types)` writes to `types` the types a node labeled `label`
// can take when its children can take `child_types` (a span of sorted
// sets, in child order). Returns the root's set, or {} as soon as some
// node has none (a node with an untypable child is untypable itself).
//
// Iterative over an explicit post-order stack: documents are bounded only
// by memory, so recursion over the tree is not an option. Each finished
// node leaves its type set on `done`, so a node's children's sets are the
// top children.size() entries when it finishes. `done` grows but never
// shrinks, so its vectors keep their capacity from node to node.
template <typename TypesOfNode>
std::vector<int> PossibleTypesBottomUp(const Tree& subtree,
                                       TypesOfNode&& types_of_node) {
  struct Frame {
    const Tree* node;
    size_t next_child;
  };
  std::vector<Frame> stack = {Frame{&subtree, 0}};
  std::vector<std::vector<int>> done;
  size_t num_done = 0;
  std::vector<int> types;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const std::vector<Tree>& children = frame.node->children;
    if (frame.next_child < children.size()) {
      stack.push_back(Frame{&children[frame.next_child++], 0});
      continue;
    }
    const size_t first = num_done - children.size();
    types_of_node(
        frame.node->label,
        std::span<const std::vector<int>>(done).subspan(first, children.size()),
        &types);
    stack.pop_back();
    if (types.empty()) return {};
    if (first == done.size()) done.emplace_back();
    done[first].swap(types);
    num_done = first + 1;
  }
  return std::move(done[0]);
}

}  // namespace stap

#endif  // STAP_SCHEMA_EDTD_H_
