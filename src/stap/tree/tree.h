// Unranked Σ-trees (paper, Section 2.1).
//
// A Tree is a value-semantic node: an integer label plus an ordered list of
// child trees. Nodes are addressed by paths (sequences of child indices,
// 0-based); the empty path is the root. This mirrors Dom(t) from the paper
// (there 1-based, here 0-based).
#ifndef STAP_TREE_TREE_H_
#define STAP_TREE_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stap/automata/alphabet.h"
#include "stap/automata/nfa.h"

namespace stap {

// A node address: child indices from the root.
using TreePath = std::vector<int>;

struct Tree {
  int label = kNoSymbol;
  std::vector<Tree> children;

  Tree() = default;
  explicit Tree(int label) : label(label) {}
  Tree(int label, std::vector<Tree> children)
      : label(label), children(std::move(children)) {}

  // The destructor flattens the subtree iteratively: the implicit
  // (recursive) teardown of vector<Tree> overflows the call stack on
  // path-shaped documents hundreds of thousands of nodes deep. Declaring
  // it suppresses the implicit copy/move members, so they are defaulted
  // explicitly.
  ~Tree();
  Tree(const Tree&) = default;
  Tree(Tree&&) noexcept = default;
  Tree& operator=(const Tree&) = default;
  Tree& operator=(Tree&&) noexcept = default;

  // Builds a unary ("linear") tree whose root-to-leaf labels spell `word`.
  // Require: word non-empty.
  static Tree Unary(const Word& word);

  bool IsLeaf() const { return children.empty(); }

  int NumNodes() const;

  // Depth per the paper: a single-node tree has depth 1.
  int Depth() const;

  // The node at `path`. Require: path valid.
  const Tree& At(const TreePath& path) const;
  Tree& At(const TreePath& path);

  bool IsValidPath(const TreePath& path) const;

  // ch-str(path): the labels of the node's children.
  Word ChildString(const TreePath& path) const;

  // anc-str(path): labels from the root down to and including the node.
  Word AncestorString(const TreePath& path) const;

  // t[path <- replacement]: returns a copy with the subtree at `path`
  // replaced. Require: path valid.
  Tree ReplaceSubtree(const TreePath& path, const Tree& replacement) const;

  // All node addresses in breadth-first order (root first).
  std::vector<TreePath> AllPaths() const;

  // Term syntax, e.g. "a(b, c(d))".
  std::string ToString(const Alphabet& alphabet) const;

  // Total order (label, then children lexicographically); enables use in
  // ordered containers for closure fixpoints.
  friend bool operator==(const Tree& a, const Tree& b) {
    return a.label == b.label && a.children == b.children;
  }
  friend bool operator<(const Tree& a, const Tree& b) {
    if (a.label != b.label) return a.label < b.label;
    return a.children < b.children;
  }
};

// Feeds `tree` to start(label) and end() in document order, over an
// explicit stack (documents can be deeper than the call stack allows).
// Stops as soon as a callback returns false; returns whether the walk
// reached the end. The event-driven kernels (StreamingValidator,
// EdtdTypeTracker) read materialized trees through it.
template <typename Start, typename End>
bool ForEachEvent(const Tree& tree, Start start, End end) {
  struct Frame {
    const Tree* node;
    size_t next_child;
  };
  if (!start(tree.label)) return false;
  std::vector<Frame> stack = {Frame{&tree, 0}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_child == frame.node->children.size()) {
      if (!end()) return false;
      stack.pop_back();
      continue;
    }
    const Tree& child = frame.node->children[frame.next_child++];
    if (!start(child.label)) return false;
    stack.push_back(Frame{&child, 0});
  }
  return true;
}

// Applies ancestor-guarded subtree exchange (Definition 2.10 / Figure 1):
// returns t1[v1 <- subtree^t2(v2)]. Require: the two nodes have equal
// ancestor strings (checked).
Tree AncestorGuardedExchange(const Tree& t1, const TreePath& v1,
                             const Tree& t2, const TreePath& v2);

// True if anc-str^t1(v1) == anc-str^t2(v2).
bool AncestorStringsEqual(const Tree& t1, const TreePath& v1, const Tree& t2,
                          const TreePath& v2);

}  // namespace stap

#endif  // STAP_TREE_TREE_H_
